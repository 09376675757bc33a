"""Repository benchmark: time the program end to end and check its outputs.

Run from the repository root::

    python3 perfbench/run.py --workload tree_solve --seed 1234 --seconds 50 --trace 0

Each iteration runs the workload in a fresh interpreter (``worker.py``)
with ``jobs=1``, the program's own defaults (the ``REPRO_*`` overrides
are removed from its environment) and BLAS/OpenMP threads capped at the
CPU count.  Timed iterations run the benchmark seed and repeat until
the next one would overrun ``--seconds``.  Every iteration's outputs are
checked (``checker.py``) and must be identical across iterations.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` and ``cpu_s``
as the minimum over the timed iterations (on a shared host, other
tenants only ever slow an iteration down, and over ten seeds on a
2-vCPU VM the minimum spread 0.08-0.21 of its median where the median
spread 0.14-0.30), ``peak_rss_mb`` as their median, ``pass_frac`` (the
share of checked operations that passed) and ``setup_s`` as the median
over at least ``SETUP_SAMPLES`` fresh interpreters, topped up with
set-up-only runs.
``--trace 1`` follows each timed iteration with a traced one and reports
the per-layer metrics of ``tracing.py`` plus ``trace.overhead_frac``,
traced wall time over untraced wall time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records
the environment.  Each run also writes that record, with its
iterations, under ``.perfbench/`` and, when traced, the spans.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

import checker
import workloads
from tracing import LAYER_UNITS

HERE = pathlib.Path(__file__).resolve().parent
OUT_DIR = ".perfbench"
SETUP_SAMPLES = 7
#: Every run must end within this many seconds, set-up probes included.
RUN_DEADLINE_S = 170.0
#: Program settings that would bypass its default paths.
STRIPPED_ENV = (
    "REPRO_JOBS",
    "REPRO_TEMPLATES",
    "REPRO_VECTOR_SIM",
    "REPRO_TASK_TIMEOUT",
    "REPRO_MAX_RETRIES",
)
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (missing program, crash, timeout)."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env(root: pathlib.Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cap = str(_nproc())
    env.update({name: cap for name in THREAD_ENV})
    return env


def _commit(root: pathlib.Path) -> str | None:
    """HEAD's commit when the checkout is a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            check=False,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest(src: pathlib.Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: pathlib.Path) -> dict:
    return {
        "nproc": _nproc(),
        "blas_thread_cap": _nproc(),
        "python": platform.python_version(),
        "commit": _commit(root),
        "source_sha256": _source_digest(root / "src"),
        "stripped_env": list(STRIPPED_ENV),
        "jobs": 1,
    }


class Runner:
    """Spawns worker processes for one workload."""

    def __init__(self, root: pathlib.Path, workload: str, started: float) -> None:
        self.root = root
        self.workload = workload
        self.env = _child_env(root)
        self.deadline = started + RUN_DEADLINE_S
        self.count = 0

    def spawn(self, seed: int, kind: str) -> dict:
        """One worker: ``kind`` is timed, traced or setup."""
        self.count += 1
        run_id = f"{self.workload}-s{seed}-{self.count}"
        options = {
            "workload": self.workload,
            "seed": seed,
            "trace": kind == "traced",
            "setup_only": kind == "setup",
            "run_id": run_id,
            "spans_path": str(self.root / OUT_DIR / f"spans-{run_id}.json"),
            "launched": time.monotonic(),
        }
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchmarkError("out of time before the next iteration")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(options)],
                cwd=self.root,
                env=self.env,
                stdout=subprocess.PIPE,
                text=True,
                timeout=timeout,
                check=False,
            )
        except subprocess.TimeoutExpired as error:
            raise BenchmarkError(f"{run_id} did not finish within {timeout:.0f} s") from error
        if done.returncode != 0:
            raise BenchmarkError(f"{run_id} exited with code {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchmarkError(f"{run_id} printed no result")
        return {"kind": kind, "seed": seed, **json.loads(lines[-1])}

    def repeat(self, seed: int, seconds: float, trace: bool) -> list[dict]:
        """Timed iterations (each followed by a traced one when tracing)
        until the next would overrun ``seconds``; at least one."""
        start = time.monotonic()
        records: list[dict] = []
        while True:
            records.append(self.spawn(seed, "timed"))
            if trace:
                records.append(self.spawn(seed, "traced"))
            rounds = len(records) // (2 if trace else 1)
            elapsed = time.monotonic() - start
            if elapsed + elapsed / rounds > seconds:
                return records


def summarize(records: list[dict], setups: list[float], trace: bool) -> dict:
    """The final result object from the iterations of one run."""
    timed = [r for r in records if r["kind"] == "timed"]
    traced = [r for r in records if r["kind"] == "traced"]
    attempted = sum(r["attempted"] for r in records)
    failures = [line for r in records for line in r["failures"]]
    if len({r["digest"] for r in records}) > 1:
        failures.append("outputs differ between iterations")
    failed = len(failures)
    if trace:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        metrics["trace.overhead_frac"] = statistics.median(
            r["wall_s"] for r in traced
        ) / statistics.median(r["wall_s"] for r in timed)
        metrics = {name: {"value": v, "unit": LAYER_UNITS[name]} for name, v in metrics.items()}
    else:
        values = {
            "wall_s": min(r["wall_s"] for r in timed),
            "cpu_s": min(r["cpu_s"] for r in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
            "pass_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "band_misses": [line for r in records for line in r["band_misses"]],
    }


def run(args: argparse.Namespace, root: pathlib.Path) -> dict:
    started = time.monotonic()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to measure: {root / 'src' / 'repro'} is missing")
    problems = checker.self_test(checker.load_reference())
    if problems:
        raise BenchmarkError("output checks failed their self-test: " + "; ".join(problems))
    # Byte-compile once so that no iteration pays the first-import compile.
    if not compileall.compile_dir(root / "src", quiet=1):
        raise BenchmarkError("the program does not compile")
    runner = Runner(root, args.workload, started)
    records = runner.repeat(args.seed, args.seconds, args.trace)
    setups = [r["setup_s"] for r in records if r["kind"] != "traced"]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(args.seed, "setup")["setup_s"])
    result = summarize(records, setups, args.trace)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {**environment(root), **records[0]["versions"]},
        "iterations": records,
        "setup_samples": setups,
        "result": result,
    }
    out = root / OUT_DIR / f"run-{args.workload}-s{args.seed}-trace{int(args.trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1))
    for line in result["failures"][:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    for line in result["band_misses"][:20]:
        print(f"band miss (within budget): {line}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    return {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    try:
        result = run(args, pathlib.Path.cwd())
    except BenchmarkError as error:
        print(f"benchmark error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
