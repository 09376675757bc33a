"""Outside-in tracing of the program's layers.

The program carries no spans of its own.  :func:`install` wraps the
public entry points of each layer (module functions, re-bound wherever
another ``repro`` module imported them by name, and class methods) so
that each call records a span: name, start, end, parent span and the
run id.  Spans stay in memory; :func:`layer_metrics` folds them into
the per-layer metrics when the run ends, and :meth:`Tracer.dump`
writes them out.

A layer's time is the summed duration of its outermost spans (a span
nested in a span of the same name is not counted twice); a span's self
time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

PROTOCOL_KEYS = ("ss", "ss_er", "ss_rt", "ss_rtr", "hs")
CHANNEL_KEYS = ("iid", "ge")

#: Every per-layer metric of a traced run, with its unit.
LAYER_UNITS = {
    **{f"protocols.replication_ms.{p}.{c}": "ms" for p in PROTOCOL_KEYS for c in CHANNEL_KEYS},
    "protocols.vectorized_share": "frac",
    "protocols.dirty_lanes": "count",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "multihop.run.s": "s",
    "multihop.replication_ms": "ms",
    "core.templates.compile.s": "s",
    "core.templates.compile.calls": "count",
    "core.templates.solve.s": "s",
    "core.markov.splu.s": "s",
    "core.markov.splu.calls": "count",
    "core.markov.lu_nnz": "count",
    "core.markov.lu_bytes": "bytes",
    "core.markov.dense.s": "s",
    "core.markov.structured.s": "s",
    "core.markov.iterative.s": "s",
    "runtime.solve_batch.s": "s",
    "runtime.solve_batch.calls": "count",
    "runtime.tasks": "count",
    "runtime.cache.hit_ratio": "frac",
    "runtime.failures": "count",
    "runtime.solver_fallbacks": "count",
    "experiments.run_scenario.s": "s",
    "experiments.run_scenario.self_s": "s",
    "validation.parity.s": "s",
    "validation.checks": "count",
    "validation.points": "count",
    "transient.solve_curve.s": "s",
    "check.sim_band_misses": "count",
    "trace.overhead_frac": "frac",
}

_TEMPLATE_FACTORIES = (
    "singlehop_template",
    "multihop_template",
    "tree_template",
    "lumped_tree_template",
    "iterative_tree_template",
    "gilbert_singlehop_template",
    "gilbert_multihop_template",
)
_TEMPLATE_SOLVERS = (
    "solve_singlehop_tasks",
    "solve_multihop_tasks",
    "solve_heterogeneous_tasks",
    "solve_multihop_structured_tasks",
    "solve_heterogeneous_structured_tasks",
    "solve_tree_tasks",
    "solve_tree_lumped_tasks",
    "solve_tree_iterative_tasks",
    "solve_gilbert_singlehop_tasks",
    "solve_gilbert_multihop_tasks",
)
_BATCH_SOLVERS = (
    "solve_singlehop_batch",
    "solve_multihop_batch",
    "solve_heterogeneous_batch",
    "solve_tree_batch",
    "solve_gilbert_singlehop_batch",
    "solve_gilbert_multihop_batch",
)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # Each span: [name, start, end, parent index or None, attrs].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.events = 0

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` recording a span per call.

        ``before(args, kwargs) -> (args, kwargs, attrs)`` may rewrite
        the arguments and attach attributes; ``after(result, attrs)``
        may add attributes from the result.
        """
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                args, kwargs, attrs = before(args, kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, attrs])
            stack.append(index)
            spans[index][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(result, attrs)
            return result

        return traced

    # ------------------------------------------------------------------
    # Folding spans into metrics
    # ------------------------------------------------------------------

    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent is not None:
            yield parent
            parent = self.spans[parent][3]

    def outermost(self, name: str) -> list[list]:
        """Spans of ``name`` not nested in another span of ``name``."""
        return [
            span
            for i, span in enumerate(self.spans)
            if span[0] == name and all(self.spans[a][0] != name for a in self._ancestors(i))
        ]

    def seconds(self, name: str) -> float:
        return sum(span[2] - span[1] for span in self.outermost(name))

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span[3] is not None:
                children.setdefault(span[3], []).append((span[1], span[2]))
        result = []
        for i, span in enumerate(self.spans):
            covered, reach = 0.0, span[1]
            for start, end in sorted(children.get(i, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            result.append(span[2] - span[1] - covered)
        return result

    def dump(self, path, extra: dict) -> None:
        """Write every span (with its self time) and ``extra`` as JSON."""
        selfs = self.self_times()
        rows = [
            {
                "id": i,
                "name": span[0],
                "start": span[1],
                "end": span[2],
                "parent": span[3],
                "self": selfs[i],
                "run_id": self.run_id,
                "attrs": span[4],
            }
            for i, span in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run_id": self.run_id, **extra, "spans": rows}))


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module global bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _wrap_function(tracer, module_name, attr, span, before=None, after=None):
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    replacement = tracer.wrap(span, original, before, after)
    setattr(module, attr, replacement)
    _rebind(original, replacement)


def _wrap_method(tracer, module_name, cls_name, attr, span, before=None, after=None):
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), before, after))


def _materialize_tasks(args, kwargs):
    tasks = list(args[0])
    return (tasks, *args[1:]), kwargs, {"tasks": len(tasks)}


def _replication_attrs(args, kwargs):
    config = args[0]
    replications = kwargs.get("replications", args[1] if len(args) > 1 else 10)
    attrs = {
        "protocol": config.protocol.name.lower(),
        "channel": "iid" if config.gilbert is None else "ge",
        "replications": replications,
    }
    return args, kwargs, attrs


def _vectorized_attrs(args, kwargs):
    replications = kwargs["replications"] if "replications" in kwargs else args[1]
    return args, kwargs, {"replications": replications}


def _lu_size(lu, attrs):
    factors = (lu.L, lu.U)
    attrs["nnz"] = sum(f.nnz for f in factors)
    attrs["bytes"] = sum(f.data.nbytes + f.indices.nbytes + f.indptr.nbytes for f in factors)


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points; call once, after importing ``repro``."""
    w = functools.partial(_wrap_function, tracer)
    m = functools.partial(_wrap_method, tracer)

    # protocols
    w("repro.protocols.session", "simulate_replications", "protocols.simulate_replications",
      before=_replication_attrs)
    w("repro.protocols.vectorized", "simulate_replications_vectorized",
      "protocols.simulate_replications_vectorized", before=_vectorized_attrs)
    m("repro.protocols.session", "SingleHopSimulation", "run", "protocols.SingleHopSimulation.run")
    # sim: events are counted, not spanned (one per engine event)
    engine = importlib.import_module("repro.sim.engine").Environment
    step = engine.step

    def counted_step(env):
        tracer.events += 1
        return step(env)

    engine.step = counted_step
    m("repro.sim.engine", "Environment", "run", "sim.Environment.run")
    # multihop
    m("repro.multihop.chain", "MultiHopSimulation", "run", "multihop.run")
    # core.templates: compile (factories, wrapped with their caches intact) and solve
    for name in _TEMPLATE_FACTORIES:
        w("repro.core.templates", name, "core.templates.compile")
    for name in _TEMPLATE_SOLVERS:
        w("repro.core.templates", name, "core.templates.solve")
    # core.markov kernels
    w("scipy.sparse.linalg", "splu", "core.markov.splu", after=_lu_size)
    w("repro.core.markov", "batched_stationary_dense", "core.markov.dense")
    w("repro.core.markov", "batched_absorption_times_dense", "core.markov.dense")
    w("repro.core.markov", "batched_stationary_chain", "core.markov.structured")
    m("repro.core.templates", "_SparseStationaryPattern", "stationary_iterative",
      "core.markov.iterative")
    m("repro.core.markov", "ContinuousTimeMarkovChain", "_stationary_iterative",
      "core.markov.iterative")
    # runtime
    for name in _BATCH_SOLVERS:
        w("repro.runtime.solvers", name, "runtime.solve_batch", before=_materialize_tasks)
    # experiments, validation, transient
    w("repro.experiments.executor", "run_scenario", "experiments.run_scenario")
    parity = importlib.import_module("repro.validation.parity")
    for name in sorted(vars(parity)):
        if name.endswith(("_parity_checks", "_parity_check")) and callable(getattr(parity, name)):
            w("repro.validation.parity", name, "validation.parity")
    w("repro.transient.curves", "compute_transient_curve", "transient.solve_curve")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run (0 where a layer idled)."""
    templates = importlib.import_module("repro.core.templates")
    runtime = importlib.import_module("repro.runtime")
    spans = tracer.spans
    metrics: dict[str, float] = {}

    # protocols: ms per replication by protocol and channel
    for protocol in PROTOCOL_KEYS:
        for channel in CHANNEL_KEYS:
            runs = [
                s for s in tracer.outermost("protocols.simulate_replications")
                if s[4]["protocol"] == protocol and s[4]["channel"] == channel
            ]
            reps = sum(s[4]["replications"] for s in runs)
            total = sum(s[2] - s[1] for s in runs)
            metrics[f"protocols.replication_ms.{protocol}.{channel}"] = (
                1e3 * total / reps if reps else 0.0
            )
    vectorized = {
        i for i, s in enumerate(spans) if s[0] == "protocols.simulate_replications_vectorized"
    }
    vector_lanes = sum(spans[i][4]["replications"] for i in vectorized)
    dirty = sum(
        1 for s in spans if s[0] == "protocols.SingleHopSimulation.run" and s[3] in vectorized
    )
    singlehop_reps = sum(
        s[4]["replications"] for s in tracer.outermost("protocols.simulate_replications")
    )
    metrics["protocols.vectorized_share"] = (
        (vector_lanes - dirty) / singlehop_reps if singlehop_reps else 0.0
    )
    metrics["protocols.dirty_lanes"] = float(dirty)

    # sim engine
    engine_s = tracer.seconds("sim.Environment.run")
    metrics["sim.events"] = float(tracer.events)
    metrics["sim.events_per_s"] = tracer.events / engine_s if engine_s else 0.0

    # multihop
    runs = tracer.outermost("multihop.run")
    metrics["multihop.run.s"] = tracer.seconds("multihop.run")
    metrics["multihop.replication_ms"] = (
        1e3 * metrics["multihop.run.s"] / len(runs) if runs else 0.0
    )

    # core.templates
    metrics["core.templates.compile.s"] = tracer.seconds("core.templates.compile")
    metrics["core.templates.compile.calls"] = float(
        sum(
            getattr(templates, name).__wrapped__.cache_info().misses
            for name in _TEMPLATE_FACTORIES
        )
    )
    metrics["core.templates.solve.s"] = tracer.seconds("core.templates.solve")

    # core.markov
    lus = tracer.outermost("core.markov.splu")
    metrics["core.markov.splu.s"] = tracer.seconds("core.markov.splu")
    metrics["core.markov.splu.calls"] = float(len(lus))
    metrics["core.markov.lu_nnz"] = float(sum(s[4].get("nnz", 0) for s in lus))
    metrics["core.markov.lu_bytes"] = float(sum(s[4].get("bytes", 0) for s in lus))
    for kernel in ("dense", "structured", "iterative"):
        metrics[f"core.markov.{kernel}.s"] = tracer.seconds(f"core.markov.{kernel}")

    # runtime
    batches = tracer.outermost("runtime.solve_batch")
    metrics["runtime.solve_batch.s"] = tracer.seconds("runtime.solve_batch")
    metrics["runtime.solve_batch.calls"] = float(len(batches))
    metrics["runtime.tasks"] = float(sum(s[4]["tasks"] for s in batches))
    stats = runtime.global_cache().stats()
    lookups = stats["hits"] + stats["misses"]
    metrics["runtime.cache.hit_ratio"] = stats["hits"] / lookups if lookups else 0.0
    failures = runtime.failure_report()
    metrics["runtime.failures"] = float(failures.total)
    metrics["runtime.solver_fallbacks"] = float(failures.solver_fallbacks)

    # experiments
    selfs = tracer.self_times()
    scenario_spans = [
        i for i, s in enumerate(spans)
        if s[0] == "experiments.run_scenario"
        and all(spans[a][0] != "experiments.run_scenario" for a in tracer._ancestors(i))
    ]
    metrics["experiments.run_scenario.s"] = tracer.seconds("experiments.run_scenario")
    metrics["experiments.run_scenario.self_s"] = sum(selfs[i] for i in scenario_spans)

    # validation and transient
    metrics["validation.parity.s"] = tracer.seconds("validation.parity")
    metrics["transient.solve_curve.s"] = tracer.seconds("transient.solve_curve")
    return metrics
