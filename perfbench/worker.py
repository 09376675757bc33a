"""One timed iteration of one workload, in a fresh interpreter.

Started by ``run.py`` with one JSON argument (workload, seed, trace,
run id, the parent's launch time on the monotonic clock, and whether to
stop after set-up).  Prints one JSON line: set-up, wall and CPU time,
peak memory, the checked operation counts with any failures, a digest
of the outputs and, for a traced iteration, the per-layer metrics.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import resource
import sys
import time


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _check(workload: str, outputs, reference: dict) -> tuple[int, list, list, str, dict]:
    """Check the outputs: counts, failures, band misses, digest, counters."""
    import checker
    import workloads

    if workload in (workloads.VALIDATION, workloads.MODEL_VALIDATION):
        scenarios = (
            workloads.MODEL_SCENARIOS
            if workload == workloads.MODEL_VALIDATION
            else reference["validation"]["coverage"]
        )
        summary = checker.summarize_reports(outputs)
        attempted, failures, misses = checker.check_validation(summary, reference, scenarios)
        text = "\n".join(report.to_json() for report in outputs)
        counters = {
            "validation.checks": float(sum(s["checks"] for s in summary.values())),
            "validation.points": float(sum(s["points"] for s in summary.values())),
        }
    else:
        attempted, failures, misses = 0, [], []
        texts = []
        for sid, result in zip(workloads.SCENARIOS[workload], outputs):
            if isinstance(result, Exception):
                attempted += 1
                failures.append(f"{sid}: raised {result!r}")
                texts.append(repr(result))
                continue
            texts.append(result.to_json())
            n, bad, missed = checker.check_scenario(
                json.loads(texts[-1]), reference["scenarios"][sid], reference
            )
            attempted += n
            failures += bad
            misses += missed
        text = "\n".join(texts)
        counters = {"validation.checks": 0.0, "validation.points": 0.0}
    counters["check.sim_band_misses"] = float(len(misses))
    digest = hashlib.sha256(text.encode()).hexdigest()
    return attempted, failures, misses, digest, counters


def main(options: dict) -> dict:
    import workloads

    run = workloads.resolve(options["workload"])
    setup_s = time.monotonic() - options["launched"]
    if options["setup_only"]:
        return {"setup_s": setup_s}

    tracer = None
    if options["trace"]:
        import tracing

        tracer = tracing.Tracer(options["run_id"])
        tracing.install(tracer)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    outputs = run(options["seed"])
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    # Read before the checks below allocate their own copies of the outputs.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checker
    import numpy
    import scipy

    attempted, failures, misses, digest, counters = _check(
        options["workload"], outputs, checker.load_reference()
    )
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "band_misses": misses,
        "digest": digest,
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        record["layers"] = {**tracing.layer_metrics(tracer), **counters}
        tracer.dump(
            pathlib.Path(options["spans_path"]),
            {"workload": options["workload"], "seed": options["seed"], "wall_s": wall_s,
             "metrics": record["layers"]},
        )
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
