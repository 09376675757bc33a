"""Picklable solve tasks and cache-aware batch helpers.

One family table (:data:`_FAMILIES`) drives every model family —
single-hop, multi-hop chain, heterogeneous chain, tree and the two
Gilbert–Elliott product families.  Each row says how to normalize a
task (resolving ``"auto"`` to a concrete backend), how to key it in the
memo cache (inputs, backend and parity class), how to solve it through
the per-point reference model, and which :mod:`repro.core.templates`
entry point serves each backend.

Pool workers need module-level callables (closures don't pickle), so
every family gets a ``solve_*_point(task)`` function taking one
plain-data task tuple — these run the reference per-point models and
stay the ground truth the fast path is parity-tested against.

The ``solve_*_batch`` helpers are what the sweep code calls: they
dedupe tasks by content key, serve repeats from
:func:`repro.runtime.cache.global_cache`, and push the misses through
the compiled-template fast path — grouped by chain structure and solved
with batched/structure-cached linear algebra.  With ``jobs > 1`` the
misses are split into contiguous chunks fanned across the process pool,
each worker running the same :func:`solve_template_chunk`, so parallel
results are identical to serial ones.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
from collections.abc import Callable, Iterable, Sequence

from repro.core import templates as _templates
from repro.core.gilbert.model import (
    GilbertMultiHopModel,
    GilbertMultiHopSolution,
    GilbertSingleHopModel,
    GilbertSingleHopSolution,
    multihop_solution_from_stationary,
    singlehop_solution_from_stationary,
)
from repro.core.markov import ContinuousTimeMarkovChain, State
from repro.core.multihop import MultiHopModel, MultiHopSolution
from repro.core.multihop.heterogeneous import HeterogeneousHop, HeterogeneousMultiHopModel
from repro.core.multihop.lumping import LumpedTreeModel, select_tree_backend
from repro.core.multihop.topology import Topology
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import MAX_ENUMERATED_TREE_STATES
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel, SingleHopSolution
from repro.faults.gilbert import GilbertElliottParameters
from repro.runtime.cache import cache_key, global_cache
from repro.runtime.executor import (
    effective_jobs,
    failure_report,
    parallel_map,
    using_jobs,
)

__all__ = [
    "run_experiment_task",
    "run_experiments",
    "solve_chain_stationary",
    "solve_gilbert_multihop_batch",
    "solve_gilbert_multihop_point",
    "solve_gilbert_singlehop_batch",
    "solve_gilbert_singlehop_point",
    "solve_heterogeneous_batch",
    "solve_heterogeneous_point",
    "solve_multihop_batch",
    "solve_multihop_point",
    "solve_protocol_suite",
    "solve_singlehop_batch",
    "solve_singlehop_point",
    "solve_template_chunk",
    "solve_tree_batch",
    "solve_tree_point",
]

_LOGGER = logging.getLogger(__name__)

_MISSING = object()

SingleHopTask = tuple[Protocol, SignalingParameters]
#: Chain tasks may carry an explicit backend as a trailing element; bare
#: tuples mean ``"auto"`` (routed by state count — the structured
#: O(hops) kernel at and above the sparse threshold, the exact template
#: path below it).
MultiHopTask = (
    tuple[Protocol, MultiHopParameters] | tuple[Protocol, MultiHopParameters, str]
)
HeterogeneousTask = (
    tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]
    | tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...], str]
)
#: Tree tasks may carry an explicit backend as a fourth element; bare
#: 3-tuples mean ``"auto"`` (routed by projected state counts).
TreeTask = (
    tuple[Protocol, MultiHopParameters, Topology]
    | tuple[Protocol, MultiHopParameters, Topology, str]
)
GilbertSingleHopTask = tuple[Protocol, SignalingParameters, GilbertElliottParameters]
GilbertMultiHopTask = tuple[Protocol, MultiHopParameters, GilbertElliottParameters]

#: Above this state count a dense rescue (an O(n^2) matrix plus an
#: O(n^3) LAPACK factorization) costs more than it saves; the fallback
#: chain skips straight to the iterative backend.
DENSE_FALLBACK_MAX_STATES = 6000


def solve_chain_stationary(chain: ContinuousTimeMarkovChain) -> dict[State, float]:
    """Stationary distribution with a logged multi-stage fallback.

    The chain's configured solver (usually ``"auto"``, which picks the
    sparse backend for large chains) is tried first.  If it fails — a
    singular sparse factorization, a non-finite solution, scipy missing
    — the chain is rescued through the remaining backends: dense first
    (exact, but only up to :data:`DENSE_FALLBACK_MAX_STATES` states),
    then the ILU/GMRES iterative solver (which survives the fill-in
    explosions that kill both LU paths on big tree generators).  One
    rescue *event* increments ``solver_fallbacks`` in
    :func:`repro.runtime.executor.failure_report` exactly once, however
    many rescue backends end up being tried, and every stage is logged
    — never silent.  A failure of the configured ``"dense"`` backend is
    a genuine modeling error and propagates immediately; if every
    rescue fails, the last error propagates.
    """
    try:
        return chain.stationary_distribution()
    except (ValueError, RuntimeError) as exc:
        if chain.solver == "dense":
            raise
        error = exc
    n = len(chain.states)
    rescues = []
    if n <= DENSE_FALLBACK_MAX_STATES:
        rescues.append("dense")
    if chain.solver != "iterative":
        rescues.append("iterative")
    if not rescues:
        raise error
    failure_report().solver_fallbacks += 1
    for rescue in rescues:
        if rescue == "dense":
            _LOGGER.warning(
                "%s stationary solve failed for a %d-state chain; recomputing densely",
                chain.solver,
                n,
            )
        else:
            _LOGGER.warning(
                "%s stationary solve failed for a %d-state chain; "
                "retrying with the iterative backend",
                chain.solver,
                n,
            )
        try:
            return chain.with_solver(rescue).stationary_distribution()
        except (ValueError, RuntimeError) as exc:
            error = exc
    raise error


def _compute_singlehop(task) -> SingleHopSolution:
    protocol, params, _ = task
    return SingleHopModel(protocol, params).solve()


def _compute_multihop(task) -> MultiHopSolution:
    # The reference path ignores the backend: every chain point solves
    # through the per-point reference model.
    protocol, params, _ = task
    return MultiHopModel(protocol, params).solve()


def _compute_heterogeneous(task) -> MultiHopSolution:
    protocol, params, hops, _ = task
    return HeterogeneousMultiHopModel(protocol, params, hops).solve()


def _compute_tree(task) -> TreeSolution:
    protocol, params, topology, backend = task
    if backend == "lumped":
        model = LumpedTreeModel(protocol, params, topology)
    elif backend == "iterative":
        model = TreeModel(
            protocol,
            params,
            topology,
            max_states=MAX_ENUMERATED_TREE_STATES,
            solver="iterative",
        )
    else:
        model = TreeModel(protocol, params, topology)
    stationary = solve_chain_stationary(model.chain())
    return model.solution_from_stationary(stationary)


def _compute_gilbert(model_type, from_stationary, task):
    protocol, params, gilbert, _ = task
    model = model_type(protocol, params, gilbert)
    if gilbert.is_degenerate:
        return model.solve()
    stationary = solve_chain_stationary(model.chain())
    return from_stationary(protocol, params, gilbert, stationary)


def _no_input_key() -> tuple:
    return ()


@dataclasses.dataclass(frozen=True)
class _TaskFamily:
    """One row of the runtime's family table.

    A task is ``(protocol, params, *inputs)`` with ``inputs`` model
    inputs, plus — for families with a ``select`` — an optional trailing
    backend (bare tasks mean ``"auto"``).  ``backends`` maps each
    backend to its :mod:`repro.core.templates` entry point and parity
    class, the first being the only one of a single-path family;
    ``input_key`` turns the inputs into hashable cache-key parts and
    ``compute`` solves one normalized task through the reference model.
    """

    kind: str
    inputs: int
    backends: dict[str, tuple[str, str]]
    compute: Callable
    input_key: Callable = _no_input_key
    select: Callable | None = None
    label: str = ""

    def normalize(self, task) -> tuple:
        """``(protocol, params, *inputs, backend)`` with ``"auto"`` resolved.

        Resolution happens before cache keying, so an ``"auto"`` task and
        its resolved explicit twin share one cache entry, while distinct
        backends never collide.
        """
        protocol, params, *inputs = task
        protocol = Protocol(protocol)
        if self.select is None:
            return (protocol, params, *inputs, next(iter(self.backends)))
        backend = inputs.pop() if len(inputs) > self.inputs else "auto"
        choices = ("auto", *self.backends)
        if backend not in choices:
            raise ValueError(
                f"{self.label} backend must be one of {choices}, got {backend!r}"
            )
        if backend == "auto":
            backend = self.select(protocol, params, *inputs)
        return (protocol, params, *inputs, backend)

    def key(self, task) -> tuple:
        """The cache key of a normalized task: inputs, backend, parity class.

        The parity class keeps a tolerance-class result from ever being
        served to an exact-path caller sharing the same inputs.
        """
        protocol, params, *inputs, backend = task
        parity_class = self.backends[backend][1]
        return cache_key(
            self.kind, protocol, params, (*self.input_key(*inputs), backend, parity_class)
        )


_FAMILIES = {
    family.kind: family
    for family in (
        _TaskFamily(
            kind="singlehop",
            inputs=0,
            backends={"template": ("solve_singlehop_tasks", "exact")},
            compute=_compute_singlehop,
        ),
        _TaskFamily(
            kind="multihop",
            inputs=0,
            backends={
                "template": ("solve_multihop_tasks", "exact"),
                "structured": ("solve_multihop_structured_tasks", "tolerance"),
            },
            compute=_compute_multihop,
            select=lambda protocol, params: _templates.select_chain_backend(
                protocol, params.hops
            ),
            label="chain",
        ),
        _TaskFamily(
            kind="heterogeneous",
            inputs=1,
            backends={
                "template": ("solve_heterogeneous_tasks", "exact"),
                "structured": ("solve_heterogeneous_structured_tasks", "tolerance"),
            },
            compute=_compute_heterogeneous,
            input_key=lambda hops: (tuple((h.loss_rate, h.delay) for h in hops),),
            select=lambda protocol, params, hops: _templates.select_chain_backend(
                protocol, params.hops
            ),
            label="chain",
        ),
        _TaskFamily(
            kind="tree",
            inputs=1,
            backends={
                "direct": ("solve_tree_tasks", "exact"),
                "lumped": ("solve_tree_lumped_tasks", "tolerance"),
                "iterative": ("solve_tree_iterative_tasks", "tolerance"),
            },
            compute=_compute_tree,
            input_key=lambda topology: (topology.parents,),
            select=lambda protocol, params, topology: select_tree_backend(topology),
            label="tree",
        ),
        _TaskFamily(
            kind="gilbert-singlehop",
            inputs=1,
            backends={"template": ("solve_gilbert_singlehop_tasks", "exact")},
            compute=functools.partial(
                _compute_gilbert,
                GilbertSingleHopModel,
                singlehop_solution_from_stationary,
            ),
            input_key=lambda gilbert: (gilbert,),
        ),
        _TaskFamily(
            kind="gilbert-multihop",
            inputs=1,
            backends={"template": ("solve_gilbert_multihop_tasks", "exact")},
            compute=functools.partial(
                _compute_gilbert,
                GilbertMultiHopModel,
                multihop_solution_from_stationary,
            ),
            input_key=lambda gilbert: (gilbert,),
        ),
    )
}


def _solve_point(kind: str, task):
    family = _FAMILIES[kind]
    task = family.normalize(task)
    key = family.key(task)
    cache = global_cache()
    value = cache.get(key, _MISSING)
    if value is _MISSING:
        value = family.compute(task)
        cache.put(key, value)
    return value


def solve_singlehop_point(task: SingleHopTask) -> SingleHopSolution:
    """Solve one single-hop ``(protocol, params)`` point (memoized)."""
    return _solve_point("singlehop", task)


def solve_multihop_point(task: MultiHopTask) -> MultiHopSolution:
    """Solve one multi-hop ``(protocol, params)`` point (memoized)."""
    return _solve_point("multihop", task)


def solve_heterogeneous_point(task: HeterogeneousTask) -> MultiHopSolution:
    """Solve one heterogeneous ``(protocol, params, hops)`` point (memoized)."""
    return _solve_point("heterogeneous", task)


def solve_tree_point(task: TreeTask) -> TreeSolution:
    """Solve one tree ``(protocol, params, topology)`` point (memoized)."""
    return _solve_point("tree", task)


def solve_gilbert_singlehop_point(task: GilbertSingleHopTask) -> GilbertSingleHopSolution:
    """Solve one ``(protocol, params, gilbert)`` product point (memoized)."""
    return _solve_point("gilbert-singlehop", task)


def solve_gilbert_multihop_point(task: GilbertMultiHopTask) -> GilbertMultiHopSolution:
    """Solve one multi-hop ``(protocol, params, gilbert)`` point (memoized)."""
    return _solve_point("gilbert-multihop", task)


def solve_protocol_suite(
    params: SignalingParameters,
) -> dict[Protocol, SingleHopSolution]:
    """Solve every protocol on one parameter set (memoized per point).

    Drop-in for :func:`repro.core.singlehop.solve_all`, and picklable so
    the sensitivity grid can fan whole parameterizations across workers.
    """
    return {protocol: solve_singlehop_point((protocol, params)) for protocol in Protocol}


def solve_template_chunk(item: tuple[str, list]) -> list:
    """Solve one ``(family kind, normalized tasks)`` chunk through templates.

    Module-level so it pickles into the pool.  Tasks are partitioned by
    their resolved backend and routed to that backend's entry point in
    :mod:`repro.core.templates`, then scattered back to input order, so
    one chunk can mix backends (a sweep crossing a crossover mid-axis)
    without extra round trips.
    """
    kind, tasks = item
    backends = _FAMILIES[kind].backends
    partitions: dict[str, list[int]] = {}
    for position, task in enumerate(tasks):
        partitions.setdefault(task[-1], []).append(position)
    results: list[object] = [None] * len(tasks)
    for backend, positions in partitions.items():
        entry_point = getattr(_templates, backends[backend][0])
        solved = entry_point([tasks[p][:-1] for p in positions])
        for position, solution in zip(positions, solved):
            results[position] = solution
    return results


def _fan_chunks(kind: str, tasks: list, jobs: int | None) -> list:
    """Run :func:`solve_template_chunk` over contiguous chunks, one per worker.

    Serial execution (one worker) hands the whole list to one template
    batch — maximal batching; parallel execution trades some batching
    for process-level parallelism while keeping deterministic order.
    """
    workers = min(effective_jobs(jobs), len(tasks))
    if workers <= 1:
        return solve_template_chunk((kind, tasks))
    bounds = [round(i * len(tasks) / workers) for i in range(workers + 1)]
    chunks = [tasks[bounds[i] : bounds[i + 1]] for i in range(workers)]
    items = [(kind, chunk) for chunk in chunks if chunk]
    parts = parallel_map(solve_template_chunk, items, jobs=workers)
    return [solution for part in parts for solution in part]


def _solve_batch(kind: str, tasks, jobs: int | None) -> list:
    # Memoization happens once here, so batch points are neither
    # double-counted in the cache stats nor double-written to the cache.
    family = _FAMILIES[kind]
    tasks = [family.normalize(task) for task in tasks]
    keys = [family.key(task) for task in tasks]
    cache = global_cache()
    resolved: dict[tuple, object] = {}
    pending: dict[tuple, object] = {}
    for key, task in zip(keys, tasks):
        if key in resolved or key in pending:
            continue
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            pending[key] = task
        else:
            resolved[key] = value
    if pending:
        computed = _fan_chunks(kind, list(pending.values()), jobs)
        for key, value in zip(pending, computed):
            cache.put(key, value)
            resolved[key] = value
    return [resolved[key] for key in keys]


def solve_singlehop_batch(
    tasks: Iterable[SingleHopTask], jobs: int | None = None
) -> list[SingleHopSolution]:
    """Solve many single-hop points; results in task order."""
    return _solve_batch("singlehop", tasks, jobs)


def solve_multihop_batch(
    tasks: Iterable[MultiHopTask], jobs: int | None = None
) -> list[MultiHopSolution]:
    """Solve many multi-hop points; results in task order."""
    return _solve_batch("multihop", tasks, jobs)


def solve_heterogeneous_batch(
    tasks: Iterable[HeterogeneousTask], jobs: int | None = None
) -> list[MultiHopSolution]:
    """Solve many heterogeneous multi-hop points; results in task order."""
    return _solve_batch("heterogeneous", tasks, jobs)


def solve_tree_batch(
    tasks: Iterable[TreeTask], jobs: int | None = None
) -> list[TreeSolution]:
    """Solve many tree points; results in task order."""
    return _solve_batch("tree", tasks, jobs)


def solve_gilbert_singlehop_batch(
    tasks: Iterable[GilbertSingleHopTask], jobs: int | None = None
) -> list[GilbertSingleHopSolution]:
    """Solve many single-hop Gilbert-Elliott points; results in task order."""
    return _solve_batch("gilbert-singlehop", tasks, jobs)


def solve_gilbert_multihop_batch(
    tasks: Iterable[GilbertMultiHopTask], jobs: int | None = None
) -> list[GilbertMultiHopSolution]:
    """Solve many multi-hop Gilbert-Elliott points; results in task order."""
    return _solve_batch("gilbert-multihop", tasks, jobs)


def run_experiment_task(task: tuple[str, bool | str]):
    """Run one whole experiment (pool task for ``repro-signaling all``).

    The task's second element is a fidelity name (``"full"``/``"fast"``/
    ``"smoke"``), or a legacy ``fast`` boolean.  The experiment's
    internal sweeps run serially inside the worker so cross-experiment
    parallelism never nests process pools.
    """
    # The `all` pool task must live below parallel_map to stay
    # picklable, yet runs a whole scenario, which lives above; the
    # lazy import defers that deliberate upward edge to worker call
    # time, so the runtime layer stays import-clean.
    from repro.experiments import run_experiment  # reprolint: disable=RL001 -- deliberate lazy upward edge, see comment

    experiment_id, fidelity = task
    if isinstance(fidelity, bool):
        fidelity = "fast" if fidelity else "full"
    with using_jobs(1):
        return run_experiment(experiment_id, fidelity=fidelity)


def run_experiments(
    experiment_ids: Sequence[str],
    fast: bool = False,
    jobs: int | None = None,
    fidelity: str | None = None,
):
    """Run several experiments, fanned across workers, in input order."""
    if fidelity is None:
        fidelity = "fast" if fast else "full"
    tasks = [(experiment_id, fidelity) for experiment_id in experiment_ids]
    return parallel_map(run_experiment_task, tasks, jobs=jobs)
