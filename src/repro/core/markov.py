"""Continuous-time Markov chain (CTMC) toolkit.

The paper's analysis rests on two standard CTMC computations, both
implemented here on top of numpy/scipy linear algebra:

* the **stationary distribution** of a recurrent chain — used for the
  inconsistency ratio (eq. 1) and the stationary message rates
  (eqs. 3-7), after the absorbing state is merged into the start state;
* the **mean time to absorption** of a transient chain — the expected
  receiver-side session length ``L`` in eq. 2.

States may be arbitrary hashable objects; the chain is specified as a
sparse mapping ``{(from_state, to_state): rate}``.

Three linear-algebra backends are provided: the original dense
``numpy.linalg.solve`` path, a ``scipy.sparse`` LU path that never
materializes the O(n²) generator, and an ILU-preconditioned iterative
path (GMRES, falling back to BiCGSTAB) for chains whose exact LU
factorization fills in catastrophically — the tree models' raw state
spaces being the motivating case.  The backend is chosen per chain via
the ``solver`` argument — ``"auto"`` (the default) picks sparse once the
state count reaches :data:`SPARSE_STATE_THRESHOLD`, keeping the small
paper chains bit-identical to the historical dense results while large
multihop/heterogeneous chains scale.  ``"iterative"`` must be requested
explicitly: its results carry Krylov truncation error (bounded by the
same residual acceptance every backend passes, see
:data:`ITERATIVE_RTOL`), so it lives in the validation suite's
*tolerance* parity class, never the bit-parity one.
"""

from __future__ import annotations

import warnings
from collections.abc import Hashable, Mapping, Sequence

import numpy as np

__all__ = [
    "ITERATIVE_RTOL",
    "SPARSE_STATE_THRESHOLD",
    "ContinuousTimeMarkovChain",
    "batched_absorption_times_dense",
    "batched_stationary_chain",
    "batched_stationary_dense",
]

State = Hashable

#: State count at which ``solver="auto"`` switches to the sparse backend.
SPARSE_STATE_THRESHOLD = 256

#: Relative residual target handed to the Krylov solvers.  Two decades
#: tighter than the universal ``1e-8``-relative acceptance check in
#: :meth:`ContinuousTimeMarkovChain.stationary_distribution`, so an
#: iterative solve either converges well inside the contract or is
#: rejected loudly — never silently degraded.
ITERATIVE_RTOL = 1e-10

_SOLVERS = ("auto", "dense", "sparse", "iterative")


def _sparse_modules():
    """``(scipy.sparse, scipy.sparse.linalg)``, or ``None`` if unavailable."""
    try:
        import scipy.sparse
        import scipy.sparse.linalg
    except ImportError:
        return None
    return scipy.sparse, scipy.sparse.linalg


class ContinuousTimeMarkovChain:
    """A finite CTMC over arbitrary hashable states.

    Parameters
    ----------
    states:
        Ordered state list; the order fixes matrix row/column indices.
    rates:
        Mapping from ``(origin, destination)`` to a non-negative
        transition rate.  Zero-rate entries are allowed and ignored.
        Self-loops are rejected (they are meaningless in a CTMC).
    solver:
        ``"dense"``, ``"sparse"``, ``"iterative"``, or ``"auto"``
        (sparse once the state count reaches
        :data:`SPARSE_STATE_THRESHOLD`, dense below it or when scipy is
        unavailable).  ``"iterative"`` (ILU-preconditioned GMRES with a
        BiCGSTAB retry) is never chosen automatically — it trades exact
        factorization for bounded-residual convergence and belongs to
        the tolerance parity class.
    """

    def __init__(
        self,
        states: Sequence[State],
        rates: Mapping[tuple[State, State], float],
        solver: str = "auto",
    ) -> None:
        if solver not in _SOLVERS:
            raise ValueError(f"solver must be one of {_SOLVERS}, got {solver!r}")
        self._solver = solver
        if len(states) == 0:
            raise ValueError("a chain needs at least one state")
        if len(set(states)) != len(states):
            raise ValueError("duplicate states in state list")
        self._states: tuple[State, ...] = tuple(states)
        self._index: dict[State, int] = {s: i for i, s in enumerate(self._states)}
        self._rates: dict[tuple[State, State], float] = {}
        # Per-state total exit rate, accumulated once here so holding
        # times and generator assembly never rescan the transition map.
        self._exit_rates: list[float] = [0.0] * len(self._states)
        for (origin, destination), rate in rates.items():
            if origin not in self._index or destination not in self._index:
                raise ValueError(f"transition {origin!r}->{destination!r} uses unknown state")
            if origin == destination:
                raise ValueError(f"self-loop on {origin!r} is not allowed")
            if rate < 0 or not np.isfinite(rate):
                raise ValueError(f"invalid rate {rate!r} for {origin!r}->{destination!r}")
            if rate > 0:
                self._rates[(origin, destination)] = self._rates.get((origin, destination), 0.0) + float(rate)
                self._exit_rates[self._index[origin]] += float(rate)

    @property
    def states(self) -> tuple[State, ...]:
        """The chain's states, in index order."""
        return self._states

    @property
    def rates(self) -> dict[tuple[State, State], float]:
        """A copy of the positive transition rates."""
        return dict(self._rates)

    def rate(self, origin: State, destination: State) -> float:
        """The rate of ``origin -> destination`` (0 when absent)."""
        return self._rates.get((origin, destination), 0.0)

    @property
    def solver(self) -> str:
        """The configured backend (one of ``"auto"``, ``"dense"``,
        ``"sparse"``, ``"iterative"``)."""
        return self._solver

    def with_solver(self, solver: str) -> "ContinuousTimeMarkovChain":
        """The same chain with a different linear-algebra backend.

        Used by the runtime's solver fallback chain to recompute a
        failed sparse solve densely.
        """
        return ContinuousTimeMarkovChain(self.states, self.rates, solver=solver)

    def _use_sparse(self, n: int) -> bool:
        if self._solver == "dense":
            return False
        if self._solver in ("sparse", "iterative"):
            if _sparse_modules() is None:
                raise RuntimeError(
                    f"solver={self._solver!r} requested but scipy is unavailable"
                )
            return True
        return n >= SPARSE_STATE_THRESHOLD and _sparse_modules() is not None

    def _generator_triplets(self) -> tuple[list[int], list[int], list[float]]:
        """COO triplets of ``Q`` (off-diagonal rates plus the diagonal)."""
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for (origin, destination), rate in self._rates.items():
            rows.append(self._index[origin])
            cols.append(self._index[destination])
            data.append(rate)
        for i, total in enumerate(self._exit_rates):
            if total:
                rows.append(i)
                cols.append(i)
                data.append(-total)
        return rows, cols, data

    def generator_matrix(self) -> np.ndarray:
        """The generator ``Q`` (rows sum to zero), densely materialized."""
        n = len(self._states)
        q = np.zeros((n, n))
        for (origin, destination), rate in self._rates.items():
            i, j = self._index[origin], self._index[destination]
            q[i, j] += rate
        np.fill_diagonal(q, q.diagonal() - q.sum(axis=1))
        return q

    def sparse_generator_matrix(self):
        """The generator ``Q`` as a ``scipy.sparse`` CSR matrix."""
        modules = _sparse_modules()
        if modules is None:
            raise RuntimeError("scipy is required for sparse_generator_matrix()")
        sparse, _ = modules
        n = len(self._states)
        rows, cols, data = self._generator_triplets()
        return sparse.csr_matrix((data, (rows, cols)), shape=(n, n))

    def stationary_distribution(self) -> dict[State, float]:
        """Solve ``pi Q = 0`` with ``sum(pi) = 1``.

        Works for chains whose recurrent class is unique; transient
        states receive probability 0.  Raises ``ValueError`` when the
        linear system is singular (e.g. several closed classes).
        """
        n = len(self._states)
        if self._solver == "iterative":
            pi, residual, scale = self._stationary_iterative(n)
        elif self._use_sparse(n):
            pi, residual, scale = self._stationary_sparse(n)
        else:
            pi, residual, scale = self._stationary_dense(n)
        if residual > 1e-8 * scale or np.any(pi < -1e-9):
            raise ValueError("stationary distribution solve failed (ill-conditioned chain)")
        pi = np.clip(pi, 0.0, None)
        pi /= pi.sum()
        return {state: float(pi[i]) for i, state in enumerate(self._states)}

    def _stationary_dense(self, n: int) -> tuple[np.ndarray, float, float]:
        q = self.generator_matrix()
        # Replace the last balance equation with the normalization row.
        a = q.T.copy()
        a[-1, :] = 1.0
        b = np.zeros(n)
        b[-1] = 1.0
        try:
            pi = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise ValueError("stationary distribution is not unique or does not exist") from exc
        residual = float(np.max(np.abs(q.T @ pi)))
        scale = max(1.0, float(np.max(np.abs(q))))
        return pi, residual, scale

    def _stationary_system(self, n: int):
        """``(A, b, q_t, scale)`` of the sparse stationary system.

        ``A`` is ``Q^T`` with the last balance row replaced by the
        normalization row, assembled in CSC form; ``q_t`` is the plain
        ``Q^T`` used for the residual check; ``scale`` bounds the rate
        magnitudes for the relative acceptance test.  Shared verbatim by
        the splu and iterative backends so both solve the identical
        matrix.
        """
        sparse, _ = _sparse_modules()
        rows, cols, data = self._generator_triplets()
        q_t = sparse.csr_matrix((data, (cols, rows)), shape=(n, n))
        a_rows: list[int] = []
        a_cols: list[int] = []
        a_data: list[float] = []
        for i, j, value in zip(rows, cols, data):
            if j == n - 1:
                continue
            a_rows.append(j)
            a_cols.append(i)
            a_data.append(value)
        a_rows.extend([n - 1] * n)
        a_cols.extend(range(n))
        a_data.extend([1.0] * n)
        a = sparse.csc_matrix((a_data, (a_rows, a_cols)), shape=(n, n))
        b = np.zeros(n)
        b[-1] = 1.0
        scale = max(1.0, max((abs(v) for v in data), default=1.0))
        return a, b, q_t, scale

    def _stationary_sparse(self, n: int) -> tuple[np.ndarray, float, float]:
        _, sparse_linalg = _sparse_modules()
        a, b, q_t, scale = self._stationary_system(n)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", sparse_linalg.MatrixRankWarning)
                pi = sparse_linalg.spsolve(a, b)
        except (RuntimeError, sparse_linalg.MatrixRankWarning) as exc:
            raise ValueError("stationary distribution is not unique or does not exist") from exc
        if not np.all(np.isfinite(pi)):
            raise ValueError("stationary distribution is not unique or does not exist")
        residual = float(np.max(np.abs(q_t @ pi)))
        return pi, residual, scale

    def _stationary_iterative(self, n: int) -> tuple[np.ndarray, float, float]:
        """ILU-preconditioned GMRES on the stationary system, with a
        BiCGSTAB retry.

        An incomplete LU keeps a *bounded* fraction of the fill-in the
        exact factorization would produce, which is precisely what the
        big tree generators need: spilu stays in memory where splu's
        ~10^8-nonzero factors do not.  The Krylov iterations then drive
        the preconditioned residual to :data:`ITERATIVE_RTOL`; the
        universal residual/negativity acceptance check still runs on the
        result, so a stagnated solve raises instead of returning junk.
        """
        if _sparse_modules() is None:
            raise RuntimeError("solver='iterative' requested but scipy is unavailable")
        a, b, q_t, scale = self._stationary_system(n)
        pi = _iterative_solve(a, b)
        residual = float(np.max(np.abs(q_t @ pi)))
        return pi, residual, scale

    def mean_time_to_absorption(
        self,
        start: State,
        absorbing: Sequence[State],
    ) -> float:
        """Expected time from ``start`` until any state in ``absorbing``.

        Solves ``(-Q_TT) t = 1`` on the transient block.  Raises
        ``ValueError`` when absorption is not certain from ``start``.
        """
        absorbing_set = set(absorbing)
        if not absorbing_set:
            raise ValueError("need at least one absorbing state")
        if start in absorbing_set:
            return 0.0
        unknown = absorbing_set - set(self._states)
        if unknown:
            raise ValueError(f"unknown absorbing states: {sorted(map(repr, unknown))}")
        transient = [s for s in self._states if s not in absorbing_set]
        t_index = {s: i for i, s in enumerate(transient)}
        if start not in t_index:
            raise ValueError(f"unknown start state {start!r}")
        if self._use_sparse(len(self._states)):
            times = self._absorption_times_sparse(transient, t_index)
        else:
            times = self._absorption_times_dense(transient)
        value = float(times[t_index[start]])
        if not np.isfinite(value) or value < 0:
            raise ValueError("absorption time solve produced an invalid value")
        return value

    def _absorption_times_dense(self, transient: list[State]) -> np.ndarray:
        q = self.generator_matrix()
        rows = [self._index[s] for s in transient]
        q_tt = q[np.ix_(rows, rows)]
        try:
            return np.linalg.solve(-q_tt, np.ones(len(transient)))
        except np.linalg.LinAlgError as exc:
            raise ValueError("absorption is not certain from the given start state") from exc

    def _absorption_times_sparse(
        self, transient: list[State], t_index: dict[State, int]
    ) -> np.ndarray:
        sparse, sparse_linalg = _sparse_modules()
        m = len(transient)
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        exit_rates = [0.0] * m
        for (origin, destination), rate in self._rates.items():
            i = t_index.get(origin)
            if i is None:
                continue
            exit_rates[i] += rate
            j = t_index.get(destination)
            if j is not None:
                # -Q_TT: negate the off-diagonal rates.
                rows.append(i)
                cols.append(j)
                data.append(-rate)
        for i, total in enumerate(exit_rates):
            rows.append(i)
            cols.append(i)
            data.append(total)
        neg_q_tt = sparse.csc_matrix((data, (rows, cols)), shape=(m, m))
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", sparse_linalg.MatrixRankWarning)
                times = sparse_linalg.spsolve(neg_q_tt, np.ones(m))
        except (RuntimeError, sparse_linalg.MatrixRankWarning) as exc:
            raise ValueError("absorption is not certain from the given start state") from exc
        if not np.all(np.isfinite(times)):
            raise ValueError("absorption is not certain from the given start state")
        return np.atleast_1d(times)

    def absorption_probability_flow(self, absorbing: Sequence[State]) -> dict[State, float]:
        """Total rate into each absorbing state from transient states.

        A diagnostic helper used by tests to check rate bookkeeping.
        """
        absorbing_set = set(absorbing)
        flows: dict[State, float] = {s: 0.0 for s in absorbing_set}
        for (origin, destination), rate in self._rates.items():
            if destination in absorbing_set and origin not in absorbing_set:
                flows[destination] += rate
        return flows

    def merge_states(self, merged: State, into: State) -> "ContinuousTimeMarkovChain":
        """Return a new chain where ``merged`` is collapsed into ``into``.

        Every transition entering ``merged`` is redirected to ``into``;
        transitions leaving ``merged`` are dropped.  This implements the
        paper's construction of the recurrent chain: "the absorption
        state (0,0) and the starting state (1,0)_1 are merged".
        """
        if merged == into:
            raise ValueError("cannot merge a state into itself")
        if merged not in self._index or into not in self._index:
            raise ValueError("both states must belong to the chain")
        new_states = [s for s in self._states if s != merged]
        new_rates: dict[tuple[State, State], float] = {}
        for (origin, destination), rate in self._rates.items():
            if origin == merged:
                continue
            target = into if destination == merged else destination
            if origin == target:
                continue
            new_rates[(origin, target)] = new_rates.get((origin, target), 0.0) + rate
        return ContinuousTimeMarkovChain(new_states, new_rates, solver=self._solver)

    def holding_time(self, state: State) -> float:
        """Mean sojourn time of ``state`` (inf when it has no exits)."""
        index = self._index.get(state)
        if index is None:
            return float("inf")
        total = self._exit_rates[index]
        if total == 0.0:
            return float("inf")
        return 1.0 / total

    def describe(self) -> str:
        """Human-readable transition listing (for debugging and docs)."""
        lines = [f"CTMC with {len(self._states)} states"]
        for (origin, destination), rate in sorted(
            self._rates.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
        ):
            lines.append(f"  {origin!r} -> {destination!r} @ {rate:.6g}")
        return "\n".join(lines)


def _iterative_solve(a, b: np.ndarray) -> np.ndarray:
    """Solve the sparse stationary system ``a x = b`` iteratively.

    spilu-preconditioned GMRES with a BiCGSTAB retry, then a few ILU
    refinement steps.  Shared by
    :meth:`ContinuousTimeMarkovChain._stationary_iterative` and the
    compiled templates' sparse pattern, so both run the identical
    sequence.  Raises ``ValueError`` when the incomplete factorization
    fails or neither Krylov method converges to a finite solution.
    """
    _, sparse_linalg = _sparse_modules()
    try:
        ilu = sparse_linalg.spilu(a, drop_tol=1e-5, fill_factor=20.0)
    except (RuntimeError, ValueError) as exc:
        raise ValueError(
            "stationary distribution is not unique or does not exist"
        ) from exc
    preconditioner = sparse_linalg.LinearOperator(a.shape, matvec=ilu.solve)
    pi, info = sparse_linalg.gmres(
        a, b, M=preconditioner, rtol=ITERATIVE_RTOL, atol=0.0, maxiter=500
    )
    if info != 0:
        pi, info = sparse_linalg.bicgstab(
            a, b, M=preconditioner, rtol=ITERATIVE_RTOL, atol=0.0, maxiter=2000
        )
    if info != 0 or not np.all(np.isfinite(pi)):
        raise ValueError(f"iterative stationary solve did not converge (info={info})")
    # Krylov convergence at ITERATIVE_RTOL leaves errors near the 1e-8
    # parity bound on small-magnitude metrics (1 - pi[full] cancels).  A
    # few ILU refinement steps contract the error by the preconditioner
    # quality per step, pushing the solution to the machine-precision
    # floor of the assembled system.
    b_norm = float(np.max(np.abs(b)))
    for _ in range(3):
        defect = b - a @ pi
        if float(np.max(np.abs(defect))) <= 1e-15 * b_norm:
            break
        refined = pi + ilu.solve(defect)
        if not np.all(np.isfinite(refined)):
            break
        pi = refined
    return pi


def batched_stationary_dense(generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions of ``K`` stacked dense generators.

    ``generators`` is a ``(K, n, n)`` array of generator matrices (rows
    summing to zero).  Solves every point with one stacked LAPACK call —
    the same ``dgesv`` the per-chain dense path uses, applied per
    matrix, so results are bit-identical to K separate
    :meth:`ContinuousTimeMarkovChain.stationary_distribution` calls.

    Returns ``(pi, bad)``: ``pi`` is ``(K, n)`` with each row clipped to
    non-negative and normalized to sum 1; ``bad`` is a ``(K,)`` boolean
    mask marking points whose solve failed the same residual /
    negativity acceptance test the per-chain path applies (callers
    should re-solve those through the reference path so they raise the
    reference's diagnostics).  Raises ``numpy.linalg.LinAlgError`` when
    any stacked matrix is exactly singular.
    """
    if generators.ndim != 3 or generators.shape[1] != generators.shape[2]:
        raise ValueError(f"expected (K, n, n) generators, got {generators.shape}")
    k, n, _ = generators.shape
    a = generators.transpose(0, 2, 1).copy()
    a[:, -1, :] = 1.0
    b = np.zeros((k, n, 1))
    b[:, -1, 0] = 1.0
    pi = np.linalg.solve(a, b)[..., 0]
    residual = np.abs(generators.transpose(0, 2, 1) @ pi[..., None])[..., 0].max(axis=1)
    scale = np.maximum(1.0, np.abs(generators).reshape(k, -1).max(axis=1))
    bad = (residual > 1e-8 * scale) | np.any(pi < -1e-9, axis=1) | ~np.all(
        np.isfinite(pi), axis=1
    )
    pi = np.clip(pi, 0.0, None)
    totals = pi.sum(axis=1, keepdims=True)
    safe = np.where(totals > 0.0, totals, 1.0)
    pi /= safe
    bad |= totals[:, 0] <= 0.0
    return pi, bad


def batched_stationary_chain(
    update: np.ndarray,
    advance: np.ndarray,
    lose: np.ndarray,
    recover: np.ndarray,
    timeouts: np.ndarray | None = None,
    false_signal: np.ndarray | None = None,
    recovery_return: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary distributions of ``K`` multihop chain generators in
    O(hops) per point.

    The chain generator is block-tridiagonal in the hop levels — each
    level holds the fast state ``F_i`` and slow state ``S_i`` — plus two
    kinds of long-range "drain" edges that every state above a level
    sends below it: the update edge into ``F_0`` and either the timeout
    staircase into each ``S_j`` (SS/SS_RT) or the false-signal edge into
    RECOVERY (HS).  Because every state above the cut between levels
    ``i`` and ``i+1`` drains across it at the *same* total rate, the cut
    balance collapses the tail mass into one scalar per level and the
    block-Thomas elimination runs level by level:

    * cut balance:   ``a_i·pi(F_i) + r_i·pi(S_i) = (u + tau_{i+1})·A_i``
      where ``A_i`` is the total mass strictly above the cut and
      ``tau_c = sum_{j<c} t_j`` the accumulated timeout drain;
    * slow balance:  ``(u + r_i + tau_i)·pi(S_i) = l_i·pi(F_i) + t_i·A_i``;
    * fast balance:  ``(u + a_{i+1} + l_{i+1} + tau_{i+1})·pi(F_{i+1})
      = a_i·pi(F_i) + r_i·pi(S_i)``.

    Seeding ``pi(F_0) = 1`` and normalizing at the end makes the whole
    recursion a product of strictly positive terms — no subtractions of
    same-sign quantities ever occur (the one subtraction below is
    bounded away from cancellation because ``t_i/(u+tau_{i+1}) < 1``),
    so the kernel is unconditionally forward-stable.  It reorders
    floating-point operations relative to the LU paths, so it lives in
    the *tolerance* parity class, never the bit-parity one.

    Parameters (all vectorized over the leading ``K`` axis):

    ``update``
        ``(K,)`` — the update rate ``u`` (every non-``F_0`` state back
        to ``F_0``).
    ``advance`` / ``lose`` / ``recover``
        ``(K, n)`` — per-hop fast-path advance ``(1-l_i)/d_i``, loss
        ``l_i/d_i``, and slow-path recovery rates.
    ``timeouts``
        ``(K, n)`` — the SS-family per-destination timeout rates
        (``F_c/S_c -> S_j`` for ``j < c``).  Mutually exclusive with the
        HS pair below.
    ``false_signal`` / ``recovery_return``
        ``(K,)`` each — the HS external false-signal rate ``e`` (every
        non-RECOVERY state into RECOVERY) and the RECOVERY ``-> F_0``
        repair rate ``g`` (on top of the update edge).

    Returns ``(pi, bad)``: ``pi`` is ``(K, ns)`` over the
    ``multihop_state_space`` order (``F_0..F_n``, ``S_0..S_{n-1}``, then
    RECOVERY for HS), each good row normalized to sum 1; ``bad`` marks
    points whose recursion produced non-finite values or non-positive
    mass (degenerate rates), for re-solving through a reference path.
    Raises ``ValueError`` for structurally invalid input — mismatched
    shapes, or neither/both of the SS-family and HS rate sets.
    """
    update = np.asarray(update, dtype=float)
    advance = np.asarray(advance, dtype=float)
    lose = np.asarray(lose, dtype=float)
    recover = np.asarray(recover, dtype=float)
    if update.ndim != 1:
        raise ValueError(f"update must be (K,), got shape {update.shape}")
    k = update.shape[0]
    for name, array in (("advance", advance), ("lose", lose), ("recover", recover)):
        if array.ndim != 2 or array.shape[0] != k:
            raise ValueError(
                f"{name} must be (K, n) with K={k}, got shape {array.shape}"
            )
    n = advance.shape[1]
    if n < 1:
        raise ValueError("chain kernels need at least one hop")
    if lose.shape[1] != n or recover.shape[1] != n:
        raise ValueError(
            f"advance/lose/recover disagree on hops: "
            f"{advance.shape[1]}/{lose.shape[1]}/{recover.shape[1]}"
        )
    with_recovery = false_signal is not None or recovery_return is not None
    if with_recovery == (timeouts is not None):
        raise ValueError(
            "provide either timeouts (SS family) or both false_signal and "
            "recovery_return (HS), not both or neither"
        )
    pi_fast = np.empty((k, n + 1))
    pi_slow = np.empty((k, n))
    pi_fast[:, 0] = 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if with_recovery:
            if false_signal is None or recovery_return is None:
                raise ValueError(
                    "HS chains need both false_signal and recovery_return"
                )
            false_signal = np.asarray(false_signal, dtype=float)
            recovery_return = np.asarray(recovery_return, dtype=float)
            if false_signal.shape != (k,) or recovery_return.shape != (k,):
                raise ValueError(
                    f"false_signal/recovery_return must be (K,)=({k},), got "
                    f"{false_signal.shape}/{recovery_return.shape}"
                )
            for i in range(n):
                pi_slow[:, i] = (
                    lose[:, i] * pi_fast[:, i]
                    / (update + recover[:, i] + false_signal)
                )
                inflow = advance[:, i] * pi_fast[:, i] + recover[:, i] * pi_slow[:, i]
                if i + 1 < n:
                    drain = update + advance[:, i + 1] + lose[:, i + 1] + false_signal
                else:
                    drain = update + false_signal
                pi_fast[:, i + 1] = inflow / drain
            rest = pi_fast.sum(axis=1) + pi_slow.sum(axis=1)
            pi_recovery = false_signal * rest / (update + recovery_return)
            pi = np.concatenate([pi_fast, pi_slow, pi_recovery[:, None]], axis=1)
        else:
            timeouts = np.asarray(timeouts, dtype=float)
            if timeouts.shape != (k, n):
                raise ValueError(
                    f"timeouts must be (K, n)=({k}, {n}), got {timeouts.shape}"
                )
            # tau[:, c] = sum of the timeout rates below level c.
            tau = np.zeros((k, n + 1))
            np.cumsum(timeouts, axis=1, out=tau[:, 1:])
            for i in range(n):
                tail_drain = update + tau[:, i + 1]
                coupling = timeouts[:, i] / tail_drain
                pi_slow[:, i] = (
                    pi_fast[:, i]
                    * (lose[:, i] + coupling * advance[:, i])
                    / (update + recover[:, i] + tau[:, i] - coupling * recover[:, i])
                )
                inflow = advance[:, i] * pi_fast[:, i] + recover[:, i] * pi_slow[:, i]
                if i + 1 < n:
                    drain = update + advance[:, i + 1] + lose[:, i + 1] + tau[:, i + 1]
                else:
                    drain = update + tau[:, n]
                pi_fast[:, i + 1] = inflow / drain
            pi = np.concatenate([pi_fast, pi_slow], axis=1)
        bad = ~np.all(np.isfinite(pi), axis=1) | np.any(pi < 0.0, axis=1)
        pi = np.where(np.isfinite(pi), pi, 0.0)
        pi = np.clip(pi, 0.0, None)
        totals = pi.sum(axis=1, keepdims=True)
        safe = np.where(totals > 0.0, totals, 1.0)
        pi /= safe
    bad |= ~np.isfinite(totals[:, 0]) | (totals[:, 0] <= 0.0)
    return pi, bad


def batched_absorption_times_dense(
    transient_generators: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected absorption times for ``K`` stacked transient blocks.

    ``transient_generators`` is ``(K, m, m)``: the ``Q_TT`` block of
    each point's generator (diagonals carry the *full* exit rates,
    including flows into the absorbing states).  Solves
    ``(-Q_TT) t = 1`` for every point in one stacked LAPACK call.

    Returns ``(times, bad)`` where ``times`` is ``(K, m)`` and ``bad``
    marks points with non-finite or negative entries (absorption not
    certain); callers should re-solve those via the reference path.
    """
    if (
        transient_generators.ndim != 3
        or transient_generators.shape[1] != transient_generators.shape[2]
    ):
        raise ValueError(
            f"expected (K, m, m) transient blocks, got {transient_generators.shape}"
        )
    k, m, _ = transient_generators.shape
    ones = np.ones((k, m, 1))
    times = np.linalg.solve(-transient_generators, ones)[..., 0]
    bad = ~np.all(np.isfinite(times), axis=1) | np.any(times < 0.0, axis=1)
    return times, bad
