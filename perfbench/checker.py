"""Output checks for the benchmark workloads.

Every timed iteration hands its outputs here before any of its timings
count.  The checks read only the result artifacts (``to_json`` dicts and
validation report summaries) and ``reference.json``, which
``record_reference.py`` wrote from the program at a known-good commit:

* model points (series without ``y_err``) must match the recorded value
  within the repo's tolerance parity class,
  ``|y - ref| <= abs + rel * |ref|``;
* simulation points must sit within the paired model point under the
  recorded sim-vs-model equivalence margins,
  ``|sim - model| <= max(ci * hw, rel * |model|, floor)``, pairing
  series exactly as the scenario's validation plan does;
* scenarios without a model (``link_flap``) compare each simulated point
  with a recorded simulation of the same point under the same margin
  form, with the two half-widths combined in quadrature;
* every point is finite and in range (inconsistency in [0, 1], rates and
  other metrics >= 0), and each scenario has exactly the recorded series
  and x grids;
* a validation sweep must cover the workload's scenarios, reproduce
  their recorded per-scenario check and point counts, and every check
  must pass.

Simulated points are random, so a band test on each of them fails now
and then on a correct program: with the plan's margins, some point
misses its band on 5 of 51 seeds of fig12 and 13 of 100 seeds of
burst_loss_hops at ``fast``, and on 6 of 40 seeds of ``validate_all``
at ``smoke``.  The benchmark runs many seeds, so a simulated check group
(one panel and metric, as the validation plan groups points) fails only
when more than ``sim_miss_budget`` of its points miss their bands -- the
violation budget the program's validation already applies to its
stochastic curves -- or when any one series in it misses more than one
point, so that one wrong protocol cannot hide among correct ones.  A
series of one point (fig11 and fig12 at ``smoke``) fails when that point
misses by more than ``GROSS_MISS`` times its allowance: failing every
such miss would fail a correct program (fig11 misses by 1.11 allowances
on seed 15).  Longer series miss further now and then (burst_loss_hops
by 2.25 allowances on seed 15), but one point at a time.  With these
rules 51 seeds of fig12 and 100 of link_flap at ``fast`` pass, and
burst_loss_hops at ``fast`` fails on seed 343043868 alone of about 210
(its SS inconsistency is half the model's at two of three points).
``validate_all`` at ``smoke`` fails on more seeds, as it fails the
program's own validation: on seeds 257 and 439653237 every SS-family
simulated message rate in fig12 and burst_loss is 36-54% below its
model, with a narrow interval from two replications of ten sessions.
So the workloads in BENCHMARK.json are the ones without simulation.

Each check returns ``(attempted, failures, misses)``: one readable line
per failed operation and per band miss within budget, so
``failed_frac`` is ``len(failures) / attempted``.
"""

from __future__ import annotations

import copy
import json
import math
import pathlib

REFERENCE_PATH = pathlib.Path(__file__).with_name("reference.json")
PROTOCOLS = ("SS", "SS+ER", "SS+RT", "SS+RTR", "HS")
#: A one-point simulated series further than this many allowances from
#: its model fails its check group on its own.
GROSS_MISS = 2.0


def load_reference(path: pathlib.Path = REFERENCE_PATH) -> dict:
    return json.loads(path.read_text())


def _close(observed: float, expected: float, tolerance: dict) -> bool:
    return abs(observed - expected) <= tolerance["abs"] + tolerance["rel"] * abs(expected)


def _allowance(margin: dict, model: float, half_width: float) -> float:
    return max(margin["ci"] * half_width, margin["rel"] * abs(model), margin["floor"])


def _in_range(value: float, kind: str) -> bool:
    if not math.isfinite(value):
        return False
    if kind == "unit":
        return 0.0 <= value <= 1.0
    return value >= 0.0


def miss_ratio(deviation: float, allowance: float) -> float:
    """``|sim - model|`` in allowances; infinite when not finite."""
    ratio = deviation / allowance if allowance > 0 else math.inf
    return ratio if math.isfinite(ratio) else math.inf


def over_budget(sizes: dict, misses: dict, reference: dict) -> bool:
    """Whether a simulated check group fails on its band misses.

    ``sizes`` maps each series of the group to its number of points and
    ``misses`` each series to the miss ratios of its points out of band.
    """
    if sum(map(len, misses.values())) > reference["sim_miss_budget"] * sum(sizes.values()):
        return True
    return any(
        len(ratios) > 1 or (sizes.get(series) == 1 and ratios[0] > GROSS_MISS)
        for series, ratios in misses.items()
    )


def check_scenario(
    result: dict, expected: dict, reference: dict
) -> tuple[int, list[str], list[str]]:
    """Check one scenario artifact against its recorded expectations."""
    sid = expected["scenario_id"]
    tolerance = reference["model_tolerance"]
    margins = reference["sim_margins"]
    attempted = 1
    failures: list[str] = []
    series = {
        (panel["name"], s["label"]): s for panel in result["panels"] for s in panel["series"]
    }
    wanted = {(e["panel"], e["label"]) for e in expected["series"]}
    if set(series) != wanted:
        failures.append(
            f"{sid}: series set differs; missing {sorted(wanted - set(series))}, "
            f"unexpected {sorted(set(series) - wanted)}"
        )
        return attempted, failures, []
    # (panel, metric) -> (series sizes, series misses, miss lines): the
    # plan's sim check groups
    groups: dict[tuple[str, str], tuple[dict, dict, list]] = {}
    for entry in expected["series"]:
        got = series[(entry["panel"], entry["label"])]
        where = f"{sid} [{entry['panel']}] {entry['label']}"
        attempted += 1
        if list(got["x"]) != entry["x"] or len(got["y"]) != len(entry["x"]):
            failures.append(f"{where}: x grid {got['x']} != {entry['x']}")
            continue
        errs = got.get("y_err") or [0.0] * len(got["y"])
        if entry["kind"] == "sim":
            pair = series[(entry["panel"], entry["model"])]["y"]
        elif entry["kind"] == "sim_reference":
            pair = entry["y"]
        for i, (x, y, hw) in enumerate(zip(entry["x"], got["y"], errs)):
            attempted += 1
            label = f"{where} @ x={x:g}"
            if not (_in_range(y, entry["range"]) and math.isfinite(hw) and hw >= 0.0):
                failures.append(f"{label}: {y!r} (+-{hw!r}) not finite/in range")
            elif entry["kind"] == "model":
                if not _close(y, entry["y"][i], tolerance):
                    failures.append(f"{label}: model {y!r} != reference {entry['y'][i]!r}")
            else:
                if entry["kind"] == "sim_reference":
                    hw = math.hypot(hw, entry["y_err"][i])
                allowed = _allowance(margins[entry["metric"]], pair[i], hw)
                sizes, series_misses, missed = groups.setdefault(
                    (entry["panel"], entry["metric"]), ({}, {}, [])
                )
                sizes[entry["label"]] = sizes.get(entry["label"], 0) + 1
                if not abs(y - pair[i]) <= allowed:
                    ratios = series_misses.setdefault(entry["label"], [])
                    ratios.append(miss_ratio(abs(y - pair[i]), allowed))
                    missed.append(f"{label}: sim {y!r} outside {pair[i]!r} +- {allowed!r}")
    misses: list[str] = []
    for (panel, metric), (sizes, series_misses, missed) in groups.items():
        if over_budget(sizes, series_misses, reference):
            failures.append(
                f"{sid} [{panel}] [{metric}]: {len(missed)} of {sum(sizes.values())} "
                "simulated points out of band, over budget"
            )
            failures.extend(missed)
        else:
            misses.extend(missed)
    return attempted, failures, misses


def _series_of(label: str) -> str | None:
    """The series of a simulated point label (``"SS @ x=0.1"`` -> ``"SS"``);
    None for a label that is not one grid point (an x-grid mismatch)."""
    series, at, _ = label.partition(" @ ")
    return series if at else None


def summarize_reports(reports) -> dict[str, dict]:
    """Per scenario: coverage totals plus each check's verdict and points.

    ``reports`` are :class:`repro.validation.ValidationReport` objects;
    the totals come from ``ValidationReport.coverage()``.  Stationary
    sim-vs-model checks also record the point count of each series and
    the miss ratio of each failed point.
    """
    summary = {}
    for report in reports:
        coverage = report.coverage()
        results = []
        for check in report.checks:
            result = {
                "name": check.name,
                "kind": check.kind,
                "passed": check.passed,
                "points": len(check.points),
                "failed_points": [p.label for p in check.points if not p.passed],
            }
            if check.kind == "sim_model" and not check.name.startswith("sim==model curve"):
                sizes: dict[str, int] = {}
                for series in filter(None, map(_series_of, (p.label for p in check.points))):
                    sizes[series] = sizes.get(series, 0) + 1
                result["series"] = sizes
                result["miss_ratios"] = [
                    miss_ratio(abs(p.observed - p.expected), p.tolerance)
                    for p in check.points if not p.passed
                ]
            results.append(result)
        summary[report.scenario_id] = {
            "checks": coverage.checks,
            "points": coverage.points,
            "results": results,
        }
    return summary


def check_validation(
    summary: dict[str, dict], reference: dict, scenarios
) -> tuple[int, list[str], list[str]]:
    """Check a validation sweep of ``scenarios`` from
    :func:`summarize_reports` output.

    Every check and every point is one operation.  A check fails with
    its failed points.  A stationary sim-vs-model check is judged by the
    miss budget instead of its own per-point verdict, and fails outright
    on an x-grid mismatch; every other check, transient curve checks
    included, keeps the program's verdict.  The failed points of a check
    that passes are band misses.  A scenario whose check or point count
    differs from the recorded one is one more failed operation.
    """
    expected = {sid: reference["validation"]["coverage"][sid] for sid in scenarios}
    attempted = 0
    failures: list[str] = []
    misses: list[str] = []
    for sid in sorted(set(expected) | set(summary)):
        got = summary.get(sid)
        want = expected.get(sid)
        attempted += 1
        if got is None or want is None:
            state = "missing" if got is None else "unexpected"
            failures.append(f"validate {sid}: scenario {state}")
            continue
        attempted += got["checks"] + got["points"]
        for check in got["results"]:
            where = f"validate {sid}: {check['name']}"
            missed = [f"{where}: {label}" for label in check["failed_points"]]
            if "series" in check:
                series_misses: dict[str | None, list[float]] = {}
                for label, ratio in zip(check["failed_points"], check["miss_ratios"]):
                    series_misses.setdefault(_series_of(label), []).append(ratio)
                failed = (
                    None in series_misses
                    or not check["series"]
                    or over_budget(check["series"], series_misses, reference)
                )
            else:
                failed = not check["passed"]
            if failed:
                failures.append(f"{where}: failed")
                failures.extend(missed)
            else:
                misses.extend(missed)
        if (got["checks"], got["points"]) != (want["checks"], want["points"]):
            failures.append(
                f"validate {sid}: {got['checks']} checks / {got['points']} points, "
                f"recorded {want['checks']} / {want['points']}"
            )
    return attempted, failures, misses


# ----------------------------------------------------------------------
# Self-test: the checks must be able to fail
# ----------------------------------------------------------------------


def self_test(reference: dict) -> list[str]:
    """Prove the checks can fail; returns a line per check that did not.

    Builds each scenario's result from the reference itself (which must
    pass), then (1) scales one model point by 1 + 1e-6, which must fail;
    (2) pushes one simulated point just outside its band, which must be
    reported as a band miss; (3) pushes every point of one simulated
    series outside, which must fail even though the other series of its
    group stay in band.  The validation check is shown a passing sweep
    and sweeps with each kind of failure and of band miss.
    """
    problems: list[str] = []
    for sid, expected in reference["scenarios"].items():
        clean = synthetic_result(expected)
        if _outcome(clean, expected, reference) != (0, 0):
            problems.append(f"{sid}: the synthetic reference result fails its own check")
            continue
        if any(e["kind"] == "model" for e in expected["series"]):
            broken = copy.deepcopy(clean)
            _perturb_model(broken, expected)
            if _outcome(broken, expected, reference) != (1, 0):
                problems.append(f"{sid}: a model point off by 1e-6 relative was not failed")
        sims = [e for e in expected["series"] if e["kind"] != "model"]
        if not sims:
            continue
        broken = copy.deepcopy(clean)
        _push_sim(broken, sims[0], 0, reference)
        if _outcome(broken, expected, reference) != (0, 1):
            problems.append(f"{sid}: an out-of-band simulated point was not flagged")
        broken = copy.deepcopy(clean)
        for i in range(len(sims[0]["x"])):
            _push_sim(broken, sims[0], i, reference)
        if _outcome(broken, expected, reference)[0] == 0:
            problems.append(f"{sid}: a simulated series out of band was not failed")
    problems.extend(_validation_self_test(reference))
    return problems


def _outcome(result: dict, expected: dict, reference: dict) -> tuple[int, int]:
    _, failures, misses = check_scenario(result, expected, reference)
    return len(failures), len(misses)


def _validation_self_test(reference: dict) -> list[str]:
    """Feed check_validation synthetic sweeps; each case edits one check
    of the first scenario and expects (failure lines, band-miss lines).
    One series out of band stays within the group's budget, so only the
    per-series rules can fail it."""
    good = {
        sid: {
            "checks": c["checks"],
            "points": c["points"],
            "results": [
                {"name": "parity", "kind": "parity", "passed": True, "points": c["points"] - 11,
                 "failed_points": []},
                {"name": "sim", "kind": "sim_model", "passed": True, "points": 9,
                 "failed_points": [], "series": {**dict.fromkeys(PROTOCOLS, 2), "HS": 1},
                 "miss_ratios": []},
                {"name": "curve", "kind": "sim_model", "passed": True, "points": 2,
                 "failed_points": []},
            ],
        }
        for sid, c in reference["validation"]["coverage"].items()
    }
    cases = {
        "passing sweep": (None, {}, (0, 0)),
        "failed parity check": (0, {"passed": False, "failed_points": ["p"]}, (2, 0)),
        "one simulated point out of band": (
            1, {"passed": False, "failed_points": ["SS @ x=1"], "miss_ratios": [1.01]}, (0, 1)),
        "only point of a series narrowly out of band": (
            1, {"passed": False, "failed_points": ["HS @ x=1"], "miss_ratios": [1.5]}, (0, 1)),
        "only point of a series far out of band": (
            1, {"passed": False, "failed_points": ["HS @ x=1"], "miss_ratios": [3.0]}, (2, 0)),
        "one simulated series out of band": (
            1, {"passed": False, "failed_points": ["SS @ x=1", "SS @ x=2"],
                "miss_ratios": [1.01, 1.01]}, (3, 0)),
        "simulated x grid differs": (
            1, {"passed": False, "failed_points": ["SS: sim x-grid differs from model"],
                "miss_ratios": [math.inf]}, (2, 0)),
        "curve miss within the program's budget": (
            2, {"passed": True, "failed_points": ["SS @ t=1"]}, (0, 1)),
        "curve over the program's budget": (
            2, {"passed": False, "failed_points": ["SS @ t=1", "SS @ t=2"]}, (3, 0)),
    }
    sid = next(iter(good))
    problems = []
    for name, (index, change, want) in cases.items():
        sweep = copy.deepcopy(good)
        if index is not None:
            sweep[sid]["results"][index].update(change)
        got = tuple(map(len, check_validation(sweep, reference, good)[1:]))
        if got != want:
            problems.append(f"validation check, {name}: (failures, misses) {got}, want {want}")
    return problems


def synthetic_result(expected: dict) -> dict:
    """A result artifact that reproduces the reference exactly.

    Model series carry their recorded values; simulated series sit on
    their paired model (or recorded) values with zero half-width.
    """
    panels: dict[str, list] = {}
    by_label = {(e["panel"], e["label"]): e for e in expected["series"]}
    for entry in expected["series"]:
        if entry["kind"] == "model":
            series = {"label": entry["label"], "x": entry["x"], "y": list(entry["y"])}
        else:
            source = by_label[(entry["panel"], entry["model"])] if entry["kind"] == "sim" else entry
            y = list(source["y"])
            series = {"label": entry["label"], "x": entry["x"], "y": y, "y_err": [0.0] * len(y)}
        panels.setdefault(entry["panel"], []).append(series)
    return {"panels": [{"name": name, "series": s} for name, s in panels.items()]}


def _series(result: dict, entry: dict) -> dict:
    for panel in result["panels"]:
        if panel["name"] == entry["panel"]:
            for series in panel["series"]:
                if series["label"] == entry["label"]:
                    return series
    raise KeyError((entry["panel"], entry["label"]))


def _perturb_model(result: dict, expected: dict) -> None:
    """Scale the largest-magnitude model point by 1 + 1e-6."""
    _, entry, i = max(
        ((abs(y), e, i) for e in expected["series"] if e["kind"] == "model"
         for i, y in enumerate(e["y"])),
        key=lambda c: c[0],
    )
    _series(result, entry)["y"][i] *= 1.0 + 1e-6


def _push_sim(result: dict, entry: dict, i: int, reference: dict) -> None:
    """Move simulated point ``i`` of ``entry`` 1% beyond its band, staying in range."""
    series = _series(result, entry)
    centre = series["y"][i]
    hw = series["y_err"][i]
    if entry["kind"] == "sim_reference":
        hw = math.hypot(hw, entry["y_err"][i])
    allowed = _allowance(reference["sim_margins"][entry["metric"]], centre, hw)
    up = centre + 1.01 * allowed
    series["y"][i] = up if _in_range(up, entry["range"]) else centre - 1.01 * allowed
