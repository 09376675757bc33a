"""The benchmark's workloads: which public entry points each one calls.

Each workload runs in a fresh interpreter with ``jobs=1`` and receives
the benchmark seed only through the entry points' ``seed=`` argument.
"""

from __future__ import annotations

import traceback

#: Seed used when ``--seed`` is not given, and the one the reference
#: outputs in ``reference.json`` were recorded with.
DEFAULT_SEED = 1234
#: Seed reserved for confirming a claimed gain on inputs that were not
#: used while the change was written.
HELD_OUT_SEED = 98765

#: Fidelity of the scenario workloads and of the validation sweep.
SCENARIO_FIDELITY = "fast"
VALIDATION_FIDELITY = "smoke"

#: Scenario workloads: workload name -> scenario ids run in order.
SCENARIOS = {
    "singlehop_sim": ("fig12", "burst_loss"),
    "multihop_sim": ("burst_loss_hops", "link_flap"),
    "tree_solve": ("tree_deep",),
}
#: The workload that runs ``validate_all`` instead of scenarios.
VALIDATION = "validate_smoke"
#: The workload that validates, at VALIDATION_FIDELITY, every scenario
#: whose validation plan runs no simulation (``build_plan(...)
#: .has_simulation`` is false at the seed commit): the backend parity
#: matrix, artifact and invariant checks, with nothing random in them.
MODEL_VALIDATION = "validate_models"
MODEL_SCENARIOS = (
    "fig10", "fig17", "fig18", "fig19", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "scaling", "table1", "tree_deep", "tree_depth", "tree_fanout", "tree_wide",
)

WORKLOADS = (*SCENARIOS, VALIDATION, MODEL_VALIDATION)


def resolve(workload: str):
    """Import the program and resolve the workload's scenarios.

    This is the set-up a user pays before the first solve; it returns
    a callable that runs the workload and returns its outputs (for a
    scenario workload, one result or raised exception per scenario).
    """
    import repro.api as api
    import repro.validation as validation
    from repro.experiments import spec as spec_registry

    if workload == VALIDATION:
        for spec in api.list_scenarios():
            spec.fidelity(VALIDATION_FIDELITY)

        def run(seed: int):
            return validation.validate_all(VALIDATION_FIDELITY, jobs=1, seed=seed)

        return run
    if workload == MODEL_VALIDATION:
        plans = [validation.build_plan(sid, VALIDATION_FIDELITY) for sid in MODEL_SCENARIOS]
        simulated = [plan.spec.scenario_id for plan in plans if plan.has_simulation]
        if simulated:
            raise RuntimeError(f"{MODEL_VALIDATION}: the plans of {simulated} now simulate")

        def run(seed: int):
            return [
                api.validate_scenario(plan.spec, VALIDATION_FIDELITY, jobs=1, seed=seed)
                for plan in plans
            ]

        return run
    specs = [spec_registry.scenario(sid) for sid in SCENARIOS[workload]]
    for spec in specs:
        spec.fidelity(SCENARIO_FIDELITY)

    def run(seed: int):
        outputs = []
        for spec in specs:
            try:
                result = api.run_scenario(spec.scenario_id, SCENARIO_FIDELITY, jobs=1, seed=seed)
            except Exception as error:  # noqa: BLE001 - a crash is a failed operation
                traceback.print_exc()
                result = error
            outputs.append(result)
        return outputs

    return run
