"""Compiled chain templates: one structure-cached, batched CTMC core.

Every figure in the paper sweeps parameters over a chain whose
*structure* — state space and transition graph — is fixed by the
protocol and a shape (a hop count or a tree topology) while only the
rates vary.  The per-point model classes
(:class:`~repro.core.singlehop.model.SingleHopModel`,
:class:`~repro.core.multihop.model.MultiHopModel`,
:class:`~repro.core.multihop.tree_model.TreeModel`, …) rebuild that
structure from Python dicts of hashable states at every sweep point.
A :class:`CompiledChain` compiles it once:

* integer COO index arrays (``rows``, ``cols``) over the fixed state
  order, a per-edge *feature* index and, for the lumped tree chain, a
  per-edge integer multiplicity;
* a family's feature-row evaluator maps each parameter point to a
  derived-feature vector, assembled into the ``(K, E)`` edge-rate
  matrix by numpy fancy-indexing — no per-point dict churn.

Each model family — single-hop, multi-hop chain (homogeneous and
heterogeneous hops), tree, lumped tree, iterative tree and the two
Gilbert–Elliott product chains — is a small :class:`_Family`
descriptor: its spec source (state list plus ``(origin, dest,
feature)`` specs), its feature-row evaluator, its solution builder,
its reference model and the backends it solves through.  Everything
else — assembly, the stationary solve dispatch, the per-point
solution loop and the reference fallback — is shared.

The derived features are computed with the *reference modules' own
helper functions* (``slow_path_recovery_rate``, ``first_timeout_rate``,
``reach_profile``, ``tree_tag_rate``, …), so every edge rate is
bit-identical to what the reference model builds; combined with stacked
LAPACK solves (one ``numpy.linalg.solve`` call for all K points) the
dense fast path reproduces the per-point dense results **bit for bit**,
not merely within tolerance.

Backends, each returning ``(pi, bad)`` for the whole batch:

* ``template`` — small chains (below
  :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states) solve all K
  points in one batched dense call; large chains keep a lazily built
  :class:`_SparseStationaryPattern` (CSC symbolic structure computed
  once, each point only refreshes the ``.data`` vector and runs
  ``splu``).  The single-hop family's ``template`` backend also solves
  the transient chain's absorption times for the receiver lifetime.
* ``iterative`` — the same pattern through ILU/GMRES (the tree
  family's escape hatch for topologies that neither fit the direct cap
  nor lump).
* ``structured`` — the chain family's O(hops) block-Thomas kernel,
  fed straight from the derived-feature rows.

Any point a backend cannot certify (singular matrix, residual check,
non-finite result) falls back to the family's reference model for that
point, logged once per point with its reason, so failure diagnostics
are exactly the reference's.
"""

from __future__ import annotations

import dataclasses
import functools
import logging
import operator
from collections.abc import Callable, Sequence

import numpy as np

from repro.core import markov as _markov
from repro.core.gilbert.model import (
    GilbertMultiHopModel,
    GilbertMultiHopSolution,
    GilbertSingleHopModel,
    GilbertSingleHopSolution,
    degenerate_multihop_solution,
    degenerate_singlehop_solution,
    multihop_solution_from_stationary,
    singlehop_solution_from_stationary,
)
from repro.core.gilbert.transitions import (
    check_multihop_coverage,
    check_singlehop_coverage,
    gilbert_multihop_specs,
    gilbert_multihop_states,
    gilbert_multihop_tag_rate,
    gilbert_singlehop_specs,
    gilbert_singlehop_states,
    gilbert_singlehop_tag_rate,
)
from repro.core.markov import (
    batched_absorption_times_dense,
    batched_stationary_chain,
    batched_stationary_dense,
)
from repro.core.multihop.heterogeneous import (
    HeterogeneousHop,
    HeterogeneousMultiHopModel,
    first_timeout_profile,
    heterogeneous_message_components,
    reach_profile,
    recovery_rate_profile,
)
from repro.core.multihop.lumping import (
    LumpedTreeModel,
    LumpedTreeSolution,
    lumped_message_components,
    lumped_state_space,
    lumped_transition_specs,
)
from repro.core.multihop.messages import multihop_message_components
from repro.core.multihop.model import MultiHopModel, MultiHopSolution
from repro.core.multihop.states import multihop_state_space
from repro.core.multihop.topology import Topology
from repro.core.multihop.transitions import (
    first_timeout_rate,
    slow_path_recovery_rate,
)
from repro.core.multihop.tree_messages import tree_message_components
from repro.core.multihop.tree_model import TreeModel, TreeSolution
from repro.core.multihop.tree_states import (
    MAX_ENUMERATED_TREE_STATES,
    tree_state_space,
)
from repro.core.multihop.tree_transitions import (
    tree_tag_rate,
    tree_transition_specs,
)
from repro.core.parameters import MultiHopParameters, SignalingParameters
from repro.core.protocols import Protocol
from repro.core.singlehop.messages import message_rate_components
from repro.core.singlehop.model import SingleHopModel, SingleHopSolution
from repro.core.singlehop.states import SingleHopState as S
from repro.core.singlehop.transitions import (
    effective_false_removal_rate,
    slow_path_recovery_rate as singlehop_recovery_rate,
    state_space,
)
from repro.faults.gilbert import GilbertElliottParameters

__all__ = [
    "CHAIN_BACKENDS",
    "CompiledChain",
    "gilbert_multihop_template",
    "gilbert_singlehop_template",
    "iterative_tree_template",
    "lumped_tree_template",
    "multihop_template",
    "select_chain_backend",
    "singlehop_template",
    "solve_gilbert_multihop_tasks",
    "solve_gilbert_singlehop_tasks",
    "solve_heterogeneous_structured_tasks",
    "solve_heterogeneous_tasks",
    "solve_multihop_structured_tasks",
    "solve_multihop_tasks",
    "solve_singlehop_tasks",
    "solve_tree_iterative_tasks",
    "solve_tree_lumped_tasks",
    "solve_tree_tasks",
    "tree_template",
]


_LOGGER = logging.getLogger(__name__)


def _assemble_dense(
    flat: np.ndarray, weights: np.ndarray, n: int
) -> np.ndarray:
    """Scatter ``(K, E)`` edge rates into ``(K, n, n)`` dense matrices.

    ``flat`` holds the flattened ``row * n + col`` position of each
    edge; duplicate positions accumulate (parallel edges merged exactly
    as the reference dict accumulation does).
    """
    k = weights.shape[0]
    out = np.zeros((k, n * n))
    for point in range(k):
        out[point] = np.bincount(flat, weights=weights[point], minlength=n * n)
    return out.reshape(k, n, n)


def _fill_generator_diagonal(q: np.ndarray) -> np.ndarray:
    """Set each diagonal to minus the row sum (rows then sum to zero)."""
    n = q.shape[1]
    idx = np.arange(n)
    q[:, idx, idx] = 0.0
    q[:, idx, idx] = -q.sum(axis=2)
    return q


class _SparseStationaryPattern:
    """Fixed CSC structure for the sparse stationary system of a template.

    The linear system is the same one
    :meth:`ContinuousTimeMarkovChain._stationary_sparse` builds —
    ``A = Q^T`` with the last balance row replaced by the normalization
    row — but the COO→CSC symbolic analysis (sort order, duplicate
    merging, indices/indptr) happens once here; each sweep point only
    refreshes the numeric ``data`` vector.
    """

    def __init__(self, edge_rows: np.ndarray, edge_cols: np.ndarray, n: int) -> None:
        self.n = n
        self.edge_rows = edge_rows
        # Generator triplets: every edge plus one diagonal slot per state.
        diag = np.arange(n)
        self.gen_rows = np.concatenate([edge_rows, diag])
        self.gen_cols = np.concatenate([edge_cols, diag])
        # A = Q^T without Q's last column (it becomes A's replaced last
        # row), plus the dense normalization row of ones.
        keep = self.gen_cols != n - 1
        a_rows = np.concatenate([self.gen_cols[keep], np.full(n, n - 1)])
        a_cols = np.concatenate([self.gen_rows[keep], diag])
        order = np.lexsort((a_rows, a_cols))
        sorted_rows = a_rows[order]
        sorted_cols = a_cols[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (sorted_rows[1:] != sorted_rows[:-1]) | (
            sorted_cols[1:] != sorted_cols[:-1]
        )
        self._keep = keep
        self._order = order
        self._slot = np.cumsum(first) - 1
        self.nnz = int(self._slot[-1]) + 1
        self.indices = sorted_rows[first]
        counts = np.bincount(sorted_cols[first], minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(counts)])
        self._rhs = np.zeros(n)
        self._rhs[-1] = 1.0

    def _assemble(self, edge_rates: np.ndarray):
        """``(matrix, gen_data)`` of one point's system ``A x = rhs``."""
        sparse, _ = _markov._sparse_modules()
        n = self.n
        exit_rates = np.bincount(self.edge_rows, weights=edge_rates, minlength=n)
        gen_data = np.concatenate([edge_rates, -exit_rates])
        values = np.concatenate([gen_data[self._keep], np.ones(n)])
        data = np.bincount(
            self._slot, weights=values[self._order], minlength=self.nnz
        )
        matrix = sparse.csc_matrix(
            (data, self.indices, self.indptr), shape=(n, n)
        )
        return matrix, gen_data

    def _accept(self, pi: np.ndarray, gen_data: np.ndarray) -> np.ndarray | None:
        """The same acceptance test the reference applies: small residual
        against ``Q^T`` and no materially negative mass."""
        if not np.all(np.isfinite(pi)):
            return None
        flow = np.bincount(
            self.gen_cols, weights=gen_data * pi[self.gen_rows], minlength=self.n
        )
        scale = max(1.0, float(np.max(np.abs(gen_data))))
        if float(np.max(np.abs(flow))) > 1e-8 * scale or np.any(pi < -1e-9):
            return None
        pi = np.clip(pi, 0.0, None)
        total = pi.sum()
        if total <= 0.0:
            return None
        return pi / total

    def stationary(self, edge_rates: np.ndarray) -> np.ndarray | None:
        """Solve one point; ``None`` when the reference path must decide."""
        if _markov._sparse_modules() is None:  # pragma: no cover - guarded by caller
            return None
        _, sparse_linalg = _markov._sparse_modules()
        matrix, gen_data = self._assemble(edge_rates)
        try:
            pi = sparse_linalg.splu(matrix).solve(self._rhs)
        except (RuntimeError, ValueError):
            return None
        return self._accept(pi, gen_data)

    def stationary_iterative(self, edge_rates: np.ndarray) -> np.ndarray | None:
        """One point through the shared ILU/GMRES solve-and-refine kernel.

        The incomplete factorization keeps bounded fill-in where the
        tree generators' exact LU explodes; the result still passes the
        universal residual/negativity acceptance or the point is flagged
        for the reference fallback.
        """
        if _markov._sparse_modules() is None:  # pragma: no cover - guarded by caller
            return None
        matrix, gen_data = self._assemble(edge_rates)
        try:
            pi = _markov._iterative_solve(matrix, self._rhs)
        except ValueError:
            return None
        return self._accept(pi, gen_data)


# ----------------------------------------------------------------------
# Backends: (chain, derived) -> (pi, bad, kind)
# ----------------------------------------------------------------------

#: Why a point a backend flagged falls back to the reference model.
_FALLBACK_REASONS = {
    "dense": "dense-bad-mask",
    "structured": "structured-bad-mask",
    "sparse": "sparse-failed",
    "iterative": "iterative-failed",
}


def _pattern_batch(solve, rates: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-point pattern solves; a ``None`` result flags the point bad."""
    pi = np.zeros((rates.shape[0], n))
    bad = np.zeros(rates.shape[0], dtype=bool)
    for point, edge_rates in enumerate(rates):
        solved = solve(edge_rates)
        if solved is None:
            bad[point] = True
        else:
            pi[point] = solved
    return pi, bad


def _template_backend(chain: CompiledChain, derived: np.ndarray):
    """Batched dense LAPACK below the sparse threshold, pattern splu above."""
    rates = chain.rates_from(derived)
    n = len(chain.states)
    if not chain._use_sparse():
        generators = _fill_generator_diagonal(
            _assemble_dense(chain.rows * n + chain.cols, rates, n)
        )
        return (*batched_stationary_dense(generators), "dense")
    return (*_pattern_batch(chain.pattern().stationary, rates, n), "sparse")


def _iterative_backend(chain: CompiledChain, derived: np.ndarray):
    """Every point through the pattern's ILU/GMRES path (tolerance class)."""
    rates = chain.rates_from(derived)
    n = len(chain.states)
    return (*_pattern_batch(chain.pattern().stationary_iterative, rates, n), "iterative")


def _absorbing_backend(chain: CompiledChain, derived: np.ndarray):
    """Single-hop: recurrent stationary distribution plus receiver lifetime.

    The recurrent chain merges the absorbing state (last) into the start
    state — its incoming edges are redirected, its row/column dropped;
    the transient chain's mean absorption time from the start state is
    appended as the last column of ``pi``, so each row still carries one
    entry per compiled state.
    """
    rates = chain.rates_from(derived)
    n = len(chain.states)
    m = n - 1  # both the recurrent and the transient block size
    absorbed = chain.states.index(S.ABSORBED)
    start = chain.states.index(S.S10_FAST)
    merged_cols = np.where(chain.cols == absorbed, start, chain.cols)
    recurrent = _fill_generator_diagonal(
        _assemble_dense(chain.rows * m + merged_cols, rates, m)
    )
    pi, bad_pi = batched_stationary_dense(recurrent)
    transient = _fill_generator_diagonal(
        _assemble_dense(chain.rows * n + chain.cols, rates, n)
    )
    times, bad_times = batched_absorption_times_dense(transient[:, :m, :m])
    return np.column_stack((pi, times[:, start])), bad_pi | bad_times, "dense"


def _chain_kernel_args(protocol: Protocol, hops: int, derived: np.ndarray) -> dict:
    """Chain-family feature rows sliced into ``batched_stationary_chain`` inputs.

    Feature layout: ``[update, advance(n), lose(n), recover(n), extra]``,
    where ``extra`` is the ``n`` first-timeout rates of the soft-state
    protocols or HS's ``(false_signal, recovery_return)`` pair.
    """
    n = hops
    kwargs = {
        "update": derived[:, 0],
        "advance": derived[:, 1 : 1 + n],
        "lose": derived[:, 1 + n : 1 + 2 * n],
        "recover": derived[:, 1 + 2 * n : 1 + 3 * n],
    }
    extra = derived[:, 1 + 3 * n :]
    if protocol is Protocol.HS:
        kwargs["false_signal"] = extra[:, 0]
        kwargs["recovery_return"] = extra[:, 1]
    else:
        kwargs["timeouts"] = extra
    return kwargs


def _structured_backend(chain: CompiledChain, derived: np.ndarray):
    """The O(hops) block-Thomas chain kernel, fed the derived rows directly.

    The chain structure never has to be scattered into a generator
    matrix, so per-point cost is linear in hops instead of cubic in
    states.
    """
    kwargs = _chain_kernel_args(chain.protocol, chain.hops, derived)
    return (*batched_stationary_chain(**kwargs), "structured")


# ----------------------------------------------------------------------
# The compiled-chain core
# ----------------------------------------------------------------------


def _identity(point):
    return point


@dataclasses.dataclass(frozen=True)
class _Family:
    """What distinguishes one model family on the shared core.

    ``compile(protocol, shape)`` returns ``(states, specs, tags)``:
    the state order, ``(origin, dest, tag)`` specs (a fourth element is
    the edge's multiplicity) and the feature order (``None`` = tags in
    first-seen order).  ``derive(chain, point)`` is the feature-row
    evaluator, ``build(chain, point, row)`` turns one row of ``pi`` into
    a solution and ``reference(chain, point)`` solves one point through
    the per-point reference model.  ``backends`` maps names to backend
    functions, the first being the default; ``select`` resolves
    ``"auto"`` for families that offer it.
    """

    name: str
    compile: Callable
    derive: Callable
    build: Callable
    reference: Callable
    backends: dict
    params_of: Callable = _identity
    select: Callable | None = None


class CompiledChain:
    """One family's compiled structure for ``(protocol, shape)``.

    ``shape`` is ``None`` (single-hop families), a hop count (chains)
    or a :class:`~repro.core.multihop.topology.Topology` (trees).  Use
    the memoized factories (:func:`singlehop_template`,
    :func:`multihop_template`, :func:`tree_template`, …) to get
    instances.
    """

    def __init__(self, family: _Family, protocol: Protocol, shape=None) -> None:
        self.family = family
        self.protocol = Protocol(protocol)
        self.shape = shape
        self.states, specs, tags = family.compile(self.protocol, shape)
        index = {state: i for i, state in enumerate(self.states)}
        tag_index = {} if tags is None else {tag: i for i, tag in enumerate(tags)}
        features = [tag_index.setdefault(spec[2], len(tag_index)) for spec in specs]
        self.tags = tuple(tag_index)
        self.rows = np.array([index[spec[0]] for spec in specs], dtype=np.intp)
        self.cols = np.array([index[spec[1]] for spec in specs], dtype=np.intp)
        self.features = np.array(features, dtype=np.intp)
        self.multiplicities = (
            np.array([spec[3] for spec in specs], dtype=np.float64)
            if len(specs[0]) == 4
            else None
        )
        self._pattern: _SparseStationaryPattern | None = None

    @property
    def hops(self) -> int | None:
        """The hop (edge) count every point must carry; ``None`` for single-hop."""
        if isinstance(self.shape, Topology):
            return self.shape.num_edges
        return self.shape

    # -- rate evaluation ------------------------------------------------

    def derived_rows(self, points: Sequence) -> np.ndarray:
        """The ``(K, n_features)`` derived-feature matrix for ``points``."""
        return np.array(
            [self.family.derive(self, point) for point in points], dtype=np.float64
        )

    def rates_from(self, derived: np.ndarray) -> np.ndarray:
        """Scatter derived-feature rows into the ``(K, E)`` edge-rate matrix."""
        rates = derived[:, self.features]
        if self.multiplicities is not None:
            rates = rates * self.multiplicities
        return rates

    def edge_rates(self, points: Sequence) -> np.ndarray:
        """The ``(K, E)`` edge-rate matrix for ``points``."""
        return self.rates_from(self.derived_rows(points))

    def stationary(self, row: np.ndarray) -> dict:
        """One row of ``pi`` as a ``{state: probability}`` dict."""
        return {state: float(row[i]) for i, state in enumerate(self.states)}

    # -- solving --------------------------------------------------------

    def _use_sparse(self) -> bool:
        return (
            len(self.states) >= _markov.SPARSE_STATE_THRESHOLD
            and _markov._sparse_modules() is not None
        )

    def pattern(self) -> _SparseStationaryPattern:
        """The sparse stationary pattern, built on first use."""
        if self._pattern is None:
            self._pattern = _SparseStationaryPattern(
                self.rows, self.cols, len(self.states)
            )
        return self._pattern

    def solve_batch(self, points: Sequence, backend: str | None = None) -> list:
        """Solve every point through ``backend`` (the family default if ``None``).

        Points the backend cannot certify — and every point when the
        batched factorization raises ``LinAlgError`` — are solved by
        the family's reference model instead, one WARNING per point.
        """
        family = self.family
        if backend is None:
            backend = next(iter(family.backends))
        elif backend == "auto" and family.select is not None:
            backend = family.select(self)
        if backend not in family.backends:
            choices = (("auto",) if family.select else ()) + tuple(family.backends)
            raise ValueError(
                f"{family.name} backend must be one of {choices}, got {backend!r}"
            )
        points = list(points)
        if not points:
            return []
        if self.hops is not None:
            for point in points:
                hops = family.params_of(point).hops
                if hops != self.hops:
                    raise ValueError(
                        f"task has {hops} hops, template compiled for {self.hops}"
                    )
        derived = self.derived_rows(points)
        try:
            pi, bad, kind = family.backends[backend](self, derived)
            reason = _FALLBACK_REASONS[kind]
        except np.linalg.LinAlgError:
            pi, bad, reason = None, np.ones(len(points), dtype=bool), "linalg-error"
        solutions = []
        for k, point in enumerate(points):
            if not bad[k]:
                solutions.append(family.build(self, point, pi[k]))
                continue
            _LOGGER.warning(
                "%s template solve fell back to the reference model at "
                "point %d of %d (%s)",
                family.name,
                k,
                len(points),
                reason,
            )
            solutions.append(family.reference(self, point))
        return solutions


# ----------------------------------------------------------------------
# Single-hop family
# ----------------------------------------------------------------------

#: Derived-feature order of the single-hop rate evaluator.
_SH_FEATURES = (
    "fast_ok",
    "fast_lost",
    "update",
    "removal",
    "recovery",
    "false_removal",
    "timeout",
    "timeout_retx",
    "removal_retx",
)


def _singlehop_specs(protocol: Protocol, _shape=None):
    """The Fig. 3 edge list in the reference build order (Table I)."""
    specs = [
        (S.S10_FAST, S.CONSISTENT, "fast_ok"),
        (S.S10_FAST, S.S10_SLOW, "fast_lost"),
        (S.IC_FAST, S.CONSISTENT, "fast_ok"),
        (S.IC_FAST, S.IC_SLOW, "fast_lost"),
        (S.S10_SLOW, S.CONSISTENT, "recovery"),
        (S.IC_SLOW, S.CONSISTENT, "recovery"),
        (S.CONSISTENT, S.IC_FAST, "update"),
        (S.S10_SLOW, S.S10_FAST, "update"),
        (S.IC_SLOW, S.IC_FAST, "update"),
        (S.S10_SLOW, S.ABSORBED, "removal"),
        (S.CONSISTENT, S.S01_FAST, "removal"),
        (S.IC_SLOW, S.S01_FAST, "removal"),
        (S.CONSISTENT, S.S10_SLOW, "false_removal"),
        (S.IC_SLOW, S.S10_SLOW, "false_removal"),
    ]
    if not protocol.explicit_removal:
        specs.append((S.S01_FAST, S.ABSORBED, "timeout"))
    else:
        specs.append((S.S01_FAST, S.ABSORBED, "fast_ok"))
        specs.append((S.S01_FAST, S.S01_SLOW, "fast_lost"))
        if protocol is Protocol.SS_ER:
            specs.append((S.S01_SLOW, S.ABSORBED, "timeout"))
        elif protocol is Protocol.SS_RTR:
            specs.append((S.S01_SLOW, S.ABSORBED, "timeout_retx"))
        else:  # HS
            specs.append((S.S01_SLOW, S.ABSORBED, "removal_retx"))
    return state_space(protocol), specs, _SH_FEATURES


def _singlehop_row(chain: CompiledChain, params: SignalingParameters) -> tuple:
    """One point's derived features, via the reference expressions."""
    p = params.loss_rate
    success = 1.0 - p
    delta = params.delay
    timeout = 1.0 / params.timeout_interval
    retransmit = 1.0 / params.retransmission_interval
    return (
        success / delta,
        p / delta,
        params.update_rate,
        params.removal_rate,
        singlehop_recovery_rate(chain.protocol, params),
        effective_false_removal_rate(chain.protocol, params),
        timeout,
        timeout + success * retransmit,
        success * retransmit,
    )


def _singlehop_solution(chain: CompiledChain, params, row) -> SingleHopSolution:
    # The row carries the recurrent states' mass, then the lifetime.
    recurrent_states = chain.states[:-1]
    stationary = {state: float(row[i]) for i, state in enumerate(recurrent_states)}
    return SingleHopSolution(
        protocol=chain.protocol,
        params=params,
        stationary=stationary,
        inconsistency_ratio=1.0 - stationary[S.CONSISTENT],
        expected_receiver_lifetime=float(row[-1]),
        message_breakdown=message_rate_components(chain.protocol, params, stationary),
    )


_SINGLEHOP = _Family(
    name="singlehop",
    compile=_singlehop_specs,
    derive=_singlehop_row,
    build=_singlehop_solution,
    reference=lambda chain, params: SingleHopModel(chain.protocol, params).solve(),
    backends={"template": _absorbing_backend},
)


# ----------------------------------------------------------------------
# Multi-hop chain family (homogeneous and heterogeneous points)
# ----------------------------------------------------------------------


#: Chain solve backends: ``"template"`` is the historical exact-path
#: default (batched dense LAPACK below the sparse threshold, splu above
#: it); ``"structured"`` is the O(hops) block-Thomas kernel (tolerance
#: class).  ``"auto"`` resolves per task via :func:`select_chain_backend`.
CHAIN_BACKENDS = ("auto", "template", "structured")


def select_chain_backend(protocol: Protocol, hops: int) -> str:
    """The chain backend ``"auto"`` resolves to for ``(protocol, hops)``.

    Below :data:`~repro.core.markov.SPARSE_STATE_THRESHOLD` states the
    template's batched dense path stays the default — it is bit-identical
    to the historical per-point dense results, and the paper's own small
    chains must keep exact ``==`` parity.  At and above the threshold the
    template would fall to per-point splu factorizations, which already
    carry tolerance-class semantics; the structured O(hops) kernel takes
    over there, trading like for like (tolerance for tolerance) while
    dropping the per-point cost from a numeric factorization to a single
    linear recursion.
    """
    protocol = Protocol(protocol)
    n_states = 2 * hops + 1 + (1 if protocol is Protocol.HS else 0)
    if n_states >= _markov.SPARSE_STATE_THRESHOLD:
        return "structured"
    return "template"


def _require_multihop(protocol: Protocol) -> None:
    if protocol not in Protocol.multihop_family():
        raise ValueError(f"{protocol.value} is not part of the multi-hop analysis")


def _chain_specs(protocol: Protocol, hops: int):
    """The Fig. 15/16 chain, features laid out as :func:`_chain_kernel_args` reads them.

    One structure serves both homogeneous and heterogeneous points —
    only the rate values differ.
    """
    _require_multihop(protocol)
    with_recovery = protocol is Protocol.HS
    states = multihop_state_space(hops, with_recovery=with_recovery)
    n = hops
    # State order mirrors multihop_state_space: fast (i,0) at i for
    # i in 0..n, slow (i,1) at n+1+i, RECOVERY last.
    fast = states[: n + 1]
    slow = states[n + 1 : 2 * n + 1]
    f_extra = 1 + 3 * n
    specs = [(state, fast[0], 0) for state in states[1:]]
    for i in range(n):
        specs.append((fast[i], fast[i + 1], 1 + i))
        specs.append((fast[i], slow[i], 1 + n + i))
        specs.append((slow[i], fast[i + 1], 1 + 2 * n + i))
    if not with_recovery:
        for state in states:
            for j in range(state.consistent_hops):
                specs.append((state, slow[j], f_extra + j))
    else:
        recovery = states[-1]
        specs.extend((state, recovery, f_extra) for state in states[:-1])
        specs.append((recovery, fast[0], f_extra + 1))
    return states, specs, range(f_extra + (2 if with_recovery else n))


def _chain_row(chain: CompiledChain, point) -> np.ndarray:
    params, hops = point
    protocol = chain.protocol
    n = chain.hops
    row = np.empty(len(chain.tags))
    row[0] = params.update_rate
    if hops is None:
        delay = params.delay
        success = 1.0 - params.loss_rate
        row[1 : 1 + n] = success / params.delay
        row[1 + n : 1 + 2 * n] = params.loss_rate / params.delay
        for i in range(n):
            row[1 + 2 * n + i] = slow_path_recovery_rate(protocol, params, i + 1)
    else:
        if len(hops) != n:
            raise ValueError(f"hop vector length {len(hops)} != template hops {n}")
        delay = sum(h.delay for h in hops) / n
        reach = reach_profile(hops)
        for i, hop in enumerate(hops):
            row[1 + i] = (1.0 - hop.loss_rate) / hop.delay
            row[1 + n + i] = hop.loss_rate / hop.delay
        row[1 + 2 * n : 1 + 3 * n] = recovery_rate_profile(protocol, params, hops, reach)
    if protocol is Protocol.HS:
        row[1 + 3 * n] = n * params.external_false_signal_rate
        row[2 + 3 * n] = 1.0 / (2.0 * n * delay)
    elif hops is None:
        for j in range(n):
            row[1 + 3 * n + j] = first_timeout_rate(params, j)
    else:
        row[1 + 3 * n :] = first_timeout_profile(params, reach)
    return row


def _chain_solution(chain: CompiledChain, point, row) -> MultiHopSolution:
    params, hops = point
    stationary = chain.stationary(row)
    if hops is None:
        breakdown = multihop_message_components(chain.protocol, params, stationary)
    else:
        breakdown = heterogeneous_message_components(
            chain.protocol, params, hops, stationary
        )
    return MultiHopSolution(
        protocol=chain.protocol,
        params=params,
        stationary=stationary,
        message_breakdown=breakdown,
    )


def _chain_reference(chain: CompiledChain, point) -> MultiHopSolution:
    params, hops = point
    if hops is None:
        return MultiHopModel(chain.protocol, params).solve()
    return HeterogeneousMultiHopModel(chain.protocol, params, hops).solve()


_CHAIN = _Family(
    name="chain",
    compile=_chain_specs,
    derive=_chain_row,
    build=_chain_solution,
    reference=_chain_reference,
    backends={"template": _template_backend, "structured": _structured_backend},
    params_of=operator.itemgetter(0),
    select=lambda chain: select_chain_backend(chain.protocol, chain.hops),
)


# ----------------------------------------------------------------------
# Tree families: direct, lumped (orbit space) and iterative
# ----------------------------------------------------------------------


def _tree_specs(protocol: Protocol, topology: Topology, max_states: int | None = None):
    """The tree chain from the same spec list the reference model accumulates."""
    _require_multihop(protocol)
    states = tree_state_space(topology, protocol is Protocol.HS, max_states)
    return states, tree_transition_specs(protocol, topology, max_states), None


def _lumped_specs(protocol: Protocol, topology: Topology):
    """The orbit chain; each spec's multiplicity scales its tag's rate."""
    _require_multihop(protocol)
    states = lumped_state_space(topology, protocol is Protocol.HS)
    return states, lumped_transition_specs(protocol, topology), None


def _tree_row(chain: CompiledChain, params: MultiHopParameters) -> list[float]:
    return [
        tree_tag_rate(chain.protocol, params, chain.shape, tag) for tag in chain.tags
    ]


def _tree_solution(solution_type, message_components):
    def build(chain: CompiledChain, params, row):
        stationary = chain.stationary(row)
        return solution_type(
            protocol=chain.protocol,
            params=params,
            topology=chain.shape,
            stationary=stationary,
            message_breakdown=message_components(
                chain.protocol, params, chain.shape, stationary
            ),
        )

    return build


_TREE = _Family(
    name="tree",
    compile=_tree_specs,
    derive=_tree_row,
    build=_tree_solution(TreeSolution, tree_message_components),
    reference=lambda chain, params: TreeModel(chain.protocol, params, chain.shape).solve(),
    backends={"template": _template_backend},
)

_ITERATIVE_TREE = dataclasses.replace(
    _TREE,
    name="iterative tree",
    compile=functools.partial(_tree_specs, max_states=MAX_ENUMERATED_TREE_STATES),
    reference=lambda chain, params: TreeModel(
        chain.protocol,
        params,
        chain.shape,
        max_states=MAX_ENUMERATED_TREE_STATES,
        solver="iterative",
    ).solve(),
    backends={"iterative": _iterative_backend},
)

_LUMPED_TREE = dataclasses.replace(
    _TREE,
    name="lumped tree",
    compile=_lumped_specs,
    build=_tree_solution(LumpedTreeSolution, lumped_message_components),
    reference=lambda chain, params: LumpedTreeModel(
        chain.protocol, params, chain.shape
    ).solve(),
)


# ----------------------------------------------------------------------
# Gilbert-Elliott product families (channel state x protocol state)
# ----------------------------------------------------------------------


def _gilbert_row(check_coverage, tag_rate):
    def derive(chain: CompiledChain, point) -> list[float]:
        params, gilbert = point
        check_coverage(chain.protocol, params, gilbert)
        return [tag_rate(chain.protocol, params, gilbert, tag) for tag in chain.tags]

    return derive


def _gilbert_multihop_specs(protocol: Protocol, hops: int):
    _require_multihop(protocol)
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    return (
        gilbert_multihop_states(protocol, hops),
        gilbert_multihop_specs(protocol, hops),
        None,
    )


# Degenerate channels (loss_good == loss_bad) never reach these
# families: the task entry points partition them onto the i.i.d. path.
_GILBERT_SINGLEHOP = _Family(
    name="gilbert singlehop",
    compile=lambda protocol, _shape: (
        gilbert_singlehop_states(protocol),
        gilbert_singlehop_specs(protocol),
        None,
    ),
    derive=_gilbert_row(check_singlehop_coverage, gilbert_singlehop_tag_rate),
    build=lambda chain, point, row: singlehop_solution_from_stationary(
        chain.protocol, *point, chain.stationary(row)
    ),
    reference=lambda chain, point: GilbertSingleHopModel(chain.protocol, *point).solve(),
    backends={"template": _template_backend},
    params_of=operator.itemgetter(0),
)

_GILBERT_MULTIHOP = _Family(
    name="gilbert multihop",
    compile=_gilbert_multihop_specs,
    derive=_gilbert_row(check_multihop_coverage, gilbert_multihop_tag_rate),
    build=lambda chain, point, row: multihop_solution_from_stationary(
        chain.protocol, *point, chain.stationary(row)
    ),
    reference=lambda chain, point: GilbertMultiHopModel(chain.protocol, *point).solve(),
    backends={"template": _template_backend},
    params_of=operator.itemgetter(0),
)


# ----------------------------------------------------------------------
# Template factories and task-level entry points
# ----------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def singlehop_template(protocol: Protocol) -> CompiledChain:
    """The memoized compiled template for ``protocol``."""
    return CompiledChain(_SINGLEHOP, protocol)


@functools.lru_cache(maxsize=256)
def multihop_template(protocol: Protocol, hops: int) -> CompiledChain:
    """The memoized compiled template for ``(protocol, hops)``."""
    return CompiledChain(_CHAIN, protocol, hops)


@functools.lru_cache(maxsize=128)
def tree_template(protocol: Protocol, topology: Topology) -> CompiledChain:
    """The memoized compiled template for ``(protocol, topology)``."""
    return CompiledChain(_TREE, protocol, topology)


@functools.lru_cache(maxsize=128)
def lumped_tree_template(protocol: Protocol, topology: Topology) -> CompiledChain:
    """The memoized compiled lumped template for ``(protocol, topology)``.

    Bit-identical to :class:`~repro.core.multihop.lumping.LumpedTreeModel`:
    each edge rate is the same ``tree_tag_rate * multiplicity`` float,
    scattered in the identical accumulation order.
    """
    return CompiledChain(_LUMPED_TREE, protocol, topology)


@functools.lru_cache(maxsize=64)
def iterative_tree_template(protocol: Protocol, topology: Topology) -> CompiledChain:
    """The memoized iterative-backend template for ``(protocol, topology)``.

    Enumerates the raw state space up to
    :data:`~repro.core.multihop.tree_states.MAX_ENUMERATED_TREE_STATES`
    and solves every point through ILU/GMRES — the tolerance-class
    escape hatch for topologies whose orbits do not compress.
    """
    return CompiledChain(_ITERATIVE_TREE, protocol, topology)


@functools.lru_cache(maxsize=64)
def gilbert_singlehop_template(protocol: Protocol) -> CompiledChain:
    """The memoized compiled Gilbert product template for ``protocol``."""
    return CompiledChain(_GILBERT_SINGLEHOP, protocol)


@functools.lru_cache(maxsize=256)
def gilbert_multihop_template(protocol: Protocol, hops: int) -> CompiledChain:
    """The memoized compiled Gilbert product template for ``(protocol, hops)``."""
    return CompiledChain(_GILBERT_MULTIHOP, protocol, hops)


def _no_shape(task) -> tuple:
    return ()


def _hop_shape(task) -> tuple:
    return (task[1].hops,)


def _topology_shape(task) -> tuple:
    return (task[2],)


_params = operator.itemgetter(1)
_params_and_input = operator.itemgetter(1, 2)


def _solve_grouped(tasks, template, shape_of, point_of, backend=None) -> list:
    """Group tasks by compiled structure, solve each group batched, scatter back.

    ``template`` is one of the memoized factories, called with
    ``(protocol, *shape_of(task))``; ``point_of(task)`` is the point its
    ``solve_batch`` takes.
    """
    tasks = list(tasks)
    groups: dict[tuple, list[int]] = {}
    for position, task in enumerate(tasks):
        groups.setdefault((Protocol(task[0]), *shape_of(task)), []).append(position)
    results: list[object] = [None] * len(tasks)
    for key, positions in groups.items():
        solved = template(*key).solve_batch(
            [point_of(tasks[p]) for p in positions], backend
        )
        for position, solution in zip(positions, solved):
            results[position] = solution
    return results


def _homogeneous_point(task) -> tuple:
    return (task[1], None)


def _heterogeneous_point(task) -> tuple:
    return (task[1], tuple(task[2]))


def solve_singlehop_tasks(
    tasks: Sequence[tuple[Protocol, SignalingParameters]],
) -> list[SingleHopSolution]:
    """Solve ``(protocol, params)`` tasks through compiled templates."""
    return _solve_grouped(tasks, singlehop_template, _no_shape, _params)


def solve_multihop_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters]],
) -> list[MultiHopSolution]:
    """Solve homogeneous ``(protocol, params)`` tasks through templates."""
    return _solve_grouped(tasks, multihop_template, _hop_shape, _homogeneous_point)


def solve_heterogeneous_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]],
) -> list[MultiHopSolution]:
    """Solve ``(protocol, params, hop_vector)`` tasks through templates."""
    return _solve_grouped(tasks, multihop_template, _hop_shape, _heterogeneous_point)


def solve_multihop_structured_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters]],
) -> list[MultiHopSolution]:
    """Solve homogeneous chain tasks through the O(hops) kernel.

    Same task shape as :func:`solve_multihop_tasks`, but every point
    runs the block-Thomas structured recursion instead of a generic LU
    factorization — tolerance parity class (the kernel reorders
    floating-point operations), with per-point reference fallback.
    """
    return _solve_grouped(
        tasks, multihop_template, _hop_shape, _homogeneous_point, "structured"
    )


def solve_heterogeneous_structured_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, tuple[HeterogeneousHop, ...]]],
) -> list[MultiHopSolution]:
    """Solve heterogeneous chain tasks through the O(hops) kernel.

    Same task shape as :func:`solve_heterogeneous_tasks`; tolerance
    parity class, per-point reference fallback (see
    :func:`solve_multihop_structured_tasks`).
    """
    return _solve_grouped(
        tasks, multihop_template, _hop_shape, _heterogeneous_point, "structured"
    )


def solve_tree_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, Topology]],
) -> list[TreeSolution]:
    """Solve ``(protocol, params, topology)`` tasks through templates."""
    return _solve_grouped(tasks, tree_template, _topology_shape, _params)


def solve_tree_lumped_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, Topology]],
) -> list[LumpedTreeSolution]:
    """Solve tree tasks on the exact orbit (lumped) state space.

    Tolerance parity class relative to the direct enumeration: orbit
    aggregation reorders float additions (the lumping itself is exact —
    proved rationally in ``tests/core/test_tree_lumping.py``).
    """
    return _solve_grouped(tasks, lumped_tree_template, _topology_shape, _params)


def solve_tree_iterative_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, Topology]],
) -> list[TreeSolution]:
    """Solve tree tasks through the ILU/GMRES iterative backend.

    Tolerance parity class: Krylov truncation bounds the residual (see
    :data:`~repro.core.markov.ITERATIVE_RTOL`) instead of factorizing
    exactly.  The raw-space escape hatch for topologies that neither
    fit the direct cap nor lump.
    """
    return _solve_grouped(tasks, iterative_tree_template, _topology_shape, _params)


def _solve_gilbert(tasks, solve_iid, wrap_degenerate, template, shape_of) -> list:
    """Partition Gilbert–Elliott tasks on channel degeneracy.

    Degenerate channels (``loss_good == loss_bad``) solve through the
    i.i.d. entry point ``solve_iid`` at the common loss and are wrapped
    verbatim, so they stay bit-identical to the baseline results; every
    other point solves through the compiled product ``template``.
    """
    tasks = list(tasks)
    results: list[object] = [None] * len(tasks)
    degenerate = [p for p, task in enumerate(tasks) if task[2].is_degenerate]
    rest = [p for p, task in enumerate(tasks) if not task[2].is_degenerate]
    if degenerate:
        base = solve_iid(
            [
                (tasks[p][0], tasks[p][1].replace(loss_rate=tasks[p][2].loss_good))
                for p in degenerate
            ]
        )
        for position, solution in zip(degenerate, base):
            _, params, gilbert = tasks[position]
            results[position] = wrap_degenerate(params, gilbert, solution)
    solved = _solve_grouped(
        [tasks[p] for p in rest], template, shape_of, _params_and_input
    )
    for position, solution in zip(rest, solved):
        results[position] = solution
    return results


def solve_gilbert_singlehop_tasks(
    tasks: Sequence[tuple[Protocol, SignalingParameters, GilbertElliottParameters]],
) -> list[GilbertSingleHopSolution]:
    """Solve ``(protocol, params, gilbert)`` tasks through templates.

    Degenerate channels take the i.i.d. single-hop template path (see
    :func:`_solve_gilbert`); the rest solve through the compiled product
    templates.
    """
    return _solve_gilbert(
        tasks,
        solve_singlehop_tasks,
        degenerate_singlehop_solution,
        gilbert_singlehop_template,
        _no_shape,
    )


def solve_gilbert_multihop_tasks(
    tasks: Sequence[tuple[Protocol, MultiHopParameters, GilbertElliottParameters]],
) -> list[GilbertMultiHopSolution]:
    """Solve multi-hop ``(protocol, params, gilbert)`` tasks through templates.

    Degenerate channels delegate to the i.i.d. multi-hop template path
    (bit-identical to baseline); the rest solve through the compiled
    product templates.
    """
    return _solve_gilbert(
        tasks,
        solve_multihop_tasks,
        degenerate_multihop_solution,
        gilbert_multihop_template,
        _hop_shape,
    )
