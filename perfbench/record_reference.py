"""Record ``reference.json``: the expected outputs the checker compares to.

Run from the repository root at a commit whose outputs are known good::

    PYTHONPATH=src python3 perfbench/record_reference.py

It stores, per scenario of the scenario workloads at their fidelity,
every series with its x grid, its value range and its kind: model
series keep their values; simulated series name the model series they
are paired with, the way the scenario's validation plan pairs them;
simulation-only scenarios keep the simulated values and half-widths of
a run at the default seed.  It also stores the per-scenario check and
point counts of the validation sweep, and the program's tolerance and
sim-vs-model margins and simulated-miss budget at that commit, so later
changes to the program cannot loosen the checks.
"""

from __future__ import annotations

import json

import workloads
from checker import REFERENCE_PATH


def _series_entries(spec, result) -> list[dict]:
    entries = []
    for panel_spec in spec.panels:
        panel = result.panel(panel_spec.name)
        for plan in panel_spec.plans:
            for protocol in plan.protocols or spec.protocols:
                label = f"{protocol.value}{plan.label_suffix}"
                series = panel.series_by_label(label)
                entry = {
                    "panel": panel_spec.name,
                    "label": label,
                    "range": "unit" if "inconsistency" in plan.metric else "nonneg",
                    "x": list(series.x),
                }
                if plan.kind != "sim":
                    entry.update(kind="model", y=list(series.y))
                elif spec.family == "link_flap":
                    entry.update(
                        kind="sim_reference",
                        metric=plan.metric,
                        y=list(series.y),
                        y_err=list(series.y_err),
                    )
                else:
                    entry.update(kind="sim", metric=plan.metric, model=protocol.value)
                entries.append(entry)
        recorded = {e["label"] for e in entries if e["panel"] == panel_spec.name}
        if recorded != set(panel.labels()):
            raise SystemExit(f"{spec.scenario_id}: unmatched series in {panel_spec.name}")
    return entries


def main() -> None:
    import repro
    import repro.api as api
    from repro.validation import SIM_EQUIVALENCE_CRITERIA, validate_all
    from repro.validation.equivalence import CURVE_EQUIVALENCE_CRITERIA
    from repro.validation.parity import SPARSE_ABS_TOL, SPARSE_REL_TOL

    seed = workloads.DEFAULT_SEED
    scenarios = {}
    for sids in workloads.SCENARIOS.values():
        for sid in sids:
            spec = next(s for s in api.list_scenarios() if s.scenario_id == sid)
            result = api.run_scenario(sid, workloads.SCENARIO_FIDELITY, jobs=1, seed=seed)
            scenarios[sid] = {"scenario_id": sid, "series": _series_entries(spec, result)}
    reports = validate_all(workloads.VALIDATION_FIDELITY, jobs=1, seed=seed)
    coverage = {}
    for report in reports:
        counts = report.coverage()
        if counts.checks_failed or counts.points_failed:
            raise SystemExit(f"validation of {report.scenario_id} fails; not a reference")
        coverage[report.scenario_id] = {"checks": counts.checks, "points": counts.points}
    reference = {
        "recorded_with": {
            "package_version": repro.__version__,
            "seed": seed,
            "scenario_fidelity": workloads.SCENARIO_FIDELITY,
            "validation_fidelity": workloads.VALIDATION_FIDELITY,
        },
        "model_tolerance": {"rel": SPARSE_REL_TOL, "abs": SPARSE_ABS_TOL},
        "sim_margins": {
            metric: {"ci": c.ci_multiplier, "rel": c.rel_tol, "floor": c.abs_floor}
            for metric, c in SIM_EQUIVALENCE_CRITERIA.items()
        },
        "sim_miss_budget": CURVE_EQUIVALENCE_CRITERIA["consistency"].max_violation_fraction,
        "scenarios": scenarios,
        "validation": {"coverage": coverage},
    }
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
