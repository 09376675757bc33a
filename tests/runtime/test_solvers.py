"""Tests for the cache-aware batch solvers and experiment fan-out."""

from __future__ import annotations

import logging

import pytest

from repro.core.parameters import kazaa_defaults, reservation_defaults
from repro.core.protocols import Protocol
from repro.core.singlehop import SingleHopModel
from repro.runtime import (
    failure_report,
    global_cache,
    run_experiments,
    solve_multihop_batch,
    solve_protocol_suite,
    solve_singlehop_batch,
)
from repro.runtime.solvers import (
    _FAMILIES,
    solve_chain_stationary,
    solve_singlehop_point,
)


def _task_key(kind, task):
    """A task's cache key through the family table's one normalizer."""
    family = _FAMILIES[kind]
    return family.key(family.normalize(task))


def _tree_key(task):
    return _task_key("tree", task)


@pytest.fixture(autouse=True)
def fresh_cache():
    global_cache().clear()
    yield
    global_cache().clear()


class TestSingleHopBatch:
    def test_matches_direct_solve(self):
        params = kazaa_defaults()
        tasks = [(protocol, params) for protocol in Protocol]
        solutions = solve_singlehop_batch(tasks)
        for (protocol, _), solution in zip(tasks, solutions):
            direct = SingleHopModel(protocol, params).solve()
            assert solution.protocol is protocol
            assert solution.inconsistency_ratio == direct.inconsistency_ratio
            assert solution.normalized_message_rate == direct.normalized_message_rate

    def test_duplicate_tasks_solved_once(self):
        params = kazaa_defaults()
        task = (Protocol.SS, params)
        solutions = solve_singlehop_batch([task, task, task])
        assert solutions[0] is solutions[1] is solutions[2]
        assert len(global_cache()) == 1

    def test_repeat_batch_served_from_cache(self):
        params = kazaa_defaults()
        tasks = [(Protocol.SS, params), (Protocol.HS, params)]
        first = solve_singlehop_batch(tasks)
        before = global_cache().stats()["misses"]
        second = solve_singlehop_batch(tasks)
        assert global_cache().stats()["misses"] == before
        assert [s.inconsistency_ratio for s in first] == [
            s.inconsistency_ratio for s in second
        ]

    def test_content_equal_parameters_share_cache_entries(self):
        solve_singlehop_batch([(Protocol.SS, kazaa_defaults())])
        solve_singlehop_batch([(Protocol.SS, kazaa_defaults())])
        assert len(global_cache()) == 1

    def test_parallel_matches_serial(self):
        base = kazaa_defaults()
        tasks = [
            (protocol, base.replace(delay=delay))
            for protocol in (Protocol.SS, Protocol.HS)
            for delay in (0.01, 0.03, 0.05)
        ]
        serial = solve_singlehop_batch(tasks, jobs=1)
        global_cache().clear()
        parallel = solve_singlehop_batch(tasks, jobs=2)
        assert [s.inconsistency_ratio for s in serial] == [
            s.inconsistency_ratio for s in parallel
        ]
        assert [s.message_breakdown for s in serial] == [
            s.message_breakdown for s in parallel
        ]

    def test_point_solver_memoizes(self):
        task = (Protocol.SS, kazaa_defaults())
        first = solve_singlehop_point(task)
        second = solve_singlehop_point(task)
        assert first is second


class TestMultiHopBatch:
    def test_matches_direct_solve(self):
        params = reservation_defaults()
        tasks = [(protocol, params) for protocol in Protocol.multihop_family()]
        solutions = solve_multihop_batch(tasks)
        assert [s.protocol for s in solutions] == list(Protocol.multihop_family())
        assert all(0.0 <= s.inconsistency_ratio <= 1.0 for s in solutions)


class TestHeterogeneousBatch:
    def test_matches_direct_solve_and_keys_on_hop_vector(self):
        from repro.core.multihop.heterogeneous import (
            HeterogeneousHop,
            HeterogeneousMultiHopModel,
            hops_from_parameters,
        )
        from repro.runtime import solve_heterogeneous_batch

        params = reservation_defaults().replace(hops=5)
        uniform = hops_from_parameters(params)
        lossy = (HeterogeneousHop(0.2, 0.05),) + uniform[1:]
        tasks = [
            (Protocol.SS, params, uniform),
            (Protocol.SS, params, lossy),
            (Protocol.SS, params, uniform),  # duplicate of the first
        ]
        solutions = solve_heterogeneous_batch(tasks)
        direct = HeterogeneousMultiHopModel(Protocol.SS, params, uniform).solve()
        assert solutions[0].inconsistency_ratio == direct.inconsistency_ratio
        # Different hop vectors must not collide in the cache...
        assert solutions[1].inconsistency_ratio != solutions[0].inconsistency_ratio
        # ...while identical ones dedupe to a single solve.
        assert solutions[2] is solutions[0]
        assert len(global_cache()) == 2


class TestProtocolSuite:
    def test_covers_every_protocol(self):
        suite = solve_protocol_suite(kazaa_defaults())
        assert set(suite) == set(Protocol)

    def test_is_picklable(self):
        import pickle

        suite = solve_protocol_suite(kazaa_defaults())
        clone = pickle.loads(pickle.dumps(suite))
        assert set(clone) == set(Protocol)


class TestRunExperiments:
    def test_serial_fanout_matches_run_experiment(self):
        from repro.experiments import run_experiment

        direct = run_experiment("fig17", fast=True)
        (fanned,) = run_experiments(["fig17"], fast=True)
        assert fanned.to_text() == direct.to_text()

    def test_parallel_fanout_matches_serial(self):
        serial = run_experiments(["fig17", "table1"], fast=True, jobs=1)
        parallel = run_experiments(["fig17", "table1"], fast=True, jobs=2)
        assert [r.to_text() for r in serial] == [r.to_text() for r in parallel]


class TestTreeBackendRouting:
    def test_cache_key_separates_backends(self):
        from repro.core.multihop import Topology

        topology = Topology.star(2)
        params = reservation_defaults().replace(hops=topology.num_edges)
        keys = {
            backend: _tree_key((Protocol.SS, params, topology, backend))
            for backend in ("direct", "lumped", "iterative")
        }
        assert len(set(keys.values())) == 3

    def test_auto_shares_cache_entry_with_resolved_backend(self):
        from repro.core.multihop import Topology, select_tree_backend

        topology = Topology.star(8)  # over the direct cap: resolves lumped
        resolved = select_tree_backend(topology)
        assert resolved == "lumped"
        params = reservation_defaults().replace(hops=topology.num_edges)
        auto_key = _tree_key((Protocol.SS, params, topology))
        explicit_key = _tree_key((Protocol.SS, params, topology, resolved))
        assert auto_key == explicit_key

    def test_batch_routes_mixed_backends_in_input_order(self):
        from repro.core.multihop import LumpedTreeModel, Topology, TreeModel
        from repro.runtime import solve_tree_batch

        params = reservation_defaults()
        small = Topology.star(2)
        wide = Topology.star(8)
        tasks = [
            (Protocol.SS, params.replace(hops=wide.num_edges), wide),
            (Protocol.SS, params.replace(hops=small.num_edges), small),
        ]
        wide_solution, small_solution = solve_tree_batch(tasks)
        direct = TreeModel(Protocol.SS, tasks[1][1], small).solve()
        lumped = LumpedTreeModel(Protocol.SS, tasks[0][1], wide).solve()
        assert small_solution.inconsistency_ratio == pytest.approx(
            direct.inconsistency_ratio, rel=1e-12
        )
        assert wide_solution.inconsistency_ratio == pytest.approx(
            lumped.inconsistency_ratio, rel=1e-12
        )

    def test_invalid_backend_rejected(self):
        from repro.core.multihop import Topology
        from repro.runtime import solve_tree_batch

        topology = Topology.star(2)
        params = reservation_defaults().replace(hops=topology.num_edges)
        with pytest.raises(ValueError, match="tree backend"):
            solve_tree_batch([(Protocol.SS, params, topology, "magic")])


class _FakeChain:
    """Duck-typed stand-in for ContinuousTimeMarkovChain in fallback tests."""

    def __init__(self, solver, failing=("sparse",)):
        self.solver = solver
        self.states = ("a", "b")
        self._failing = failing

    def stationary_distribution(self):
        if self.solver in self._failing:
            raise ValueError(f"{self.solver} factorization is singular")
        return {"a": 0.5, "b": 0.5}

    def with_solver(self, solver):
        return _FakeChain(solver, self._failing)


class TestStationarySolverFallback:
    @pytest.fixture(autouse=True)
    def fresh_report(self):
        failure_report().reset()
        yield
        failure_report().reset()

    def test_sparse_failure_falls_back_to_dense(self, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.runtime.solvers"):
            result = solve_chain_stationary(_FakeChain("sparse"))
        assert result == {"a": 0.5, "b": 0.5}
        assert failure_report().solver_fallbacks == 1
        assert any("recomputing densely" in record.message for record in caplog.records)

    def test_successful_solve_is_not_counted(self):
        assert solve_chain_stationary(_FakeChain("sparse", failing=())) == {
            "a": 0.5,
            "b": 0.5,
        }
        assert failure_report().solver_fallbacks == 0

    def test_dense_failure_propagates(self):
        with pytest.raises(ValueError, match="dense factorization"):
            solve_chain_stationary(_FakeChain("dense", failing=("dense",)))
        assert failure_report().solver_fallbacks == 0

    def test_sparse_and_dense_failures_rescue_iteratively(self, caplog):
        # Sparse fails, dense also fails: the iterative backend is the
        # last rescue on the chain and still lands the solve.
        with caplog.at_level(logging.WARNING, logger="repro.runtime.solvers"):
            result = solve_chain_stationary(
                _FakeChain("sparse", failing=("sparse", "dense"))
            )
        assert result == {"a": 0.5, "b": 0.5}
        assert failure_report().solver_fallbacks == 1

    def test_fallback_failure_propagates_after_counting(self):
        # Every backend fails: the last rescue's error surfaces and the
        # attempted fallback is still on the record.
        with pytest.raises(ValueError, match="iterative factorization"):
            solve_chain_stationary(
                _FakeChain("sparse", failing=("sparse", "dense", "iterative"))
            )
        assert failure_report().solver_fallbacks == 1

    def test_iterative_chain_rescues_densely_without_self_retry(self):
        # An iterative-configured chain must not retry iteratively; the
        # dense rescue answers.
        result = solve_chain_stationary(
            _FakeChain("iterative", failing=("iterative",))
        )
        assert result == {"a": 0.5, "b": 0.5}
        assert failure_report().solver_fallbacks == 1


def _backend_cases():
    """``(kind, bare task, auto-resolved backend)`` for every backend-carrying family."""
    from repro.core.multihop import Topology
    from repro.core.multihop.heterogeneous import hops_from_parameters

    small = reservation_defaults().replace(hops=4)
    large = reservation_defaults().replace(hops=130)
    star2, star8 = Topology.star(2), Topology.star(8)
    return [
        ("multihop", (Protocol.SS, small), "template"),
        ("multihop", (Protocol.HS, large), "structured"),
        ("heterogeneous", (Protocol.SS_RT, small, hops_from_parameters(small)), "template"),
        ("heterogeneous", (Protocol.SS, large, hops_from_parameters(large)), "structured"),
        ("tree", (Protocol.SS, small.replace(hops=2), star2), "direct"),
        ("tree", (Protocol.HS, small.replace(hops=8), star8), "lumped"),
    ]


class TestCacheKeyContract:
    """One normalizer keys every family that carries a backend."""

    @pytest.mark.parametrize("kind, task, resolved", _backend_cases())
    def test_auto_task_shares_key_with_resolved_twin(self, kind, task, resolved):
        bare = _task_key(kind, task)
        assert bare == _task_key(kind, (*task, "auto"))
        assert bare == _task_key(kind, (*task, resolved))

    @pytest.mark.parametrize("kind, task, resolved", _backend_cases())
    def test_tolerance_backends_never_share_the_exact_key(self, kind, task, resolved):
        backends = _FAMILIES[kind].backends
        [exact] = [name for name, (_, parity) in backends.items() if parity == "exact"]
        exact_key = _task_key(kind, (*task, exact))
        tolerance = [name for name, (_, parity) in backends.items() if parity == "tolerance"]
        assert tolerance
        keys = {_task_key(kind, (*task, name)) for name in tolerance}
        assert exact_key not in keys
        assert len(keys) == len(tolerance)

    @pytest.mark.parametrize("kind, task, resolved", _backend_cases())
    def test_unknown_backend_rejected(self, kind, task, resolved):
        with pytest.raises(ValueError, match="backend must be one of"):
            _task_key(kind, (*task, "magic"))

    def test_parity_classes_match_the_registry(self):
        from repro.validation.parity import PARITY_CLASSES

        for family in _FAMILIES.values():
            for entry_point, parity in family.backends.values():
                assert PARITY_CLASSES[entry_point] == parity, entry_point
