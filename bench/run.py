#!/usr/bin/env python3
"""Benchmark for the bicyclic toolkit: four workloads, end-to-end and per-layer metrics.

One workload, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 bench/run.py --workload families --seed 1 --seconds 20 --trace 0

All four workloads, each untraced and then traced in its own process, with
a summary table and the tracing overhead:

    python3 bench/run.py

Run from the root of a source checkout; the library is imported from
`src/`.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The exit code is 0 only
when every output check passed and no operation raised.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
from array import array
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from oracle import KnownFault
from workloads import child_env

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 9
IMPORT_PROBES = 3
MIN_ROUNDS = 2  # untraced; a traced run measures one round at least
LATENCY_CAP = 1 << 16  # latencies kept, so the harness's share of peak_rss_mb is bounded
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def probe_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running `code`, from spawn to exit."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(ROOT), check=True, cwd=ROOT)
    return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Median time for a fresh process to import bicyclic and build round 0's inputs.

    The probes run back to back after one unmeasured probe: the first
    process started after a pause runs markedly slower than the rest.
    """
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]\n"
        "import bicyclic\n"
        f"from workloads import {workload} as w, Context\n"
        f"list(w.build({seed}, 0, Context(root=__import__('pathlib').Path({str(ROOT)!r}))))\n"
    )
    probe_seconds(code)
    return statistics.median(probe_seconds(code) for _ in range(SETUP_PROBES))


def import_seconds() -> float:
    """Median time a fresh process spends in `import bicyclic`, measured inside it."""
    code = (
        "import time; t = time.perf_counter(); import bicyclic, bicyclic.cli; "
        "print(time.perf_counter() - t)"
    )
    values = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(ROOT), check=True, capture_output=True, text=True, cwd=ROOT
        )
        values.append(float(out.stdout.strip()))
    return statistics.median(values)


class Run:
    """Executes rounds of one workload, times every operation and runs its checks."""

    def __init__(self, module, seed: int, ctx, tracer=None):
        self.module, self.seed, self.ctx, self.tracer = module, seed, ctx, tracer
        self.attempted = 0
        self.failed = 0
        self.latencies = array("d")  # a uniform sample of at most LATENCY_CAP of them
        self.timed_ops = 0
        self.sampler = random.Random(seed)
        self.round_walls = []
        self.check_failures = []
        self.known_faults = set()
        self.checks_run = 0
        self.round_figures = []

    def _check(self, op, result, results, timed: bool):
        if op.check is None:
            return
        self.checks_run += 1
        try:
            op.check(result, results)
        except KnownFault as exc:
            self.failed += timed
            self.known_faults.add(f"{op.kind} {op.detail}: {exc}")
        except Exception as exc:  # a check that errors is a failed check
            self.check_failures.append(f"{op.kind} {op.detail}: {type(exc).__name__}: {exc}")

    def _keep(self, latency: float):
        """Reservoir sampling: every timed latency is kept with the same chance."""
        self.timed_ops += 1
        if len(self.latencies) < LATENCY_CAP:
            self.latencies.append(latency)
        else:
            slot = self.sampler.randrange(self.timed_ops)
            if slot < LATENCY_CAP:
                self.latencies[slot] = latency

    def run_ops(self, ops, timed: bool) -> float:
        results = {}
        wall = 0.0
        tracer = self.tracer if timed else None
        for op in ops:
            if timed:
                self.attempted += 1
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = op.run(results)
            except Exception as exc:
                if tracer is not None:
                    tracer.active = False
                if timed:
                    self.failed += 1
                print(f"operation failed: {op.kind} {op.detail}", file=sys.stderr)
                self.check_failures.append(f"{op.kind} {op.detail}: raised {type(exc).__name__}: {exc}")
                traceback.print_exc(limit=3, file=sys.stderr)
                continue
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.active = False
            if timed:
                wall += elapsed
                self._keep(elapsed)
            if op.key is not None:
                results[op.key] = result
            self._check(op, result, results, timed)
        return wall

    def rounds(self, seconds: float):
        from tracer import round_figures

        begin = time.perf_counter()
        index = 0
        min_rounds = 1 if self.tracer else MIN_ROUNDS
        while index < min_rounds or time.perf_counter() - begin < seconds:
            gc.collect()  # start every round from the same heap, outside the timed region
            ops = self.module.build(self.seed, index, self.ctx)
            before = self.tracer.snapshot() if self.tracer else None
            wall = self.run_ops(ops, timed=True)
            self.round_walls.append(wall)
            if self.tracer:
                self.round_figures.append(round_figures(before, self.tracer.snapshot(), wall))
                self.tracer.record = False  # the trace file holds the first round's spans
                self.tracer.maxima.clear()
            index += 1


def end_to_end(run: Run, workload: str, seed: int) -> dict:
    # read before sorting the latencies and before the set-up probes start children
    who = resource.RUSAGE_CHILDREN if getattr(run.module, "RUNS_IN_CHILDREN", False) else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    lat_ms = sorted(x * 1000.0 for x in run.latencies)
    values = {
        "setup_s": setup_seconds(workload, seed),
        "wall_s": statistics.median(run.round_walls),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "peak_rss_mb": rss_kb / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run: Run) -> dict:
    """Counts and ratios from the first traced round; times as medians over rounds."""
    first = run.round_figures[0]
    out = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median(fig[name] for fig in run.round_figures)
            out[name] = {"value": value, "unit": "s"}
        elif isinstance(value, float):
            out[name] = {"value": value, "unit": "ratio"}
        else:
            out[name] = {"value": value, "unit": "count"}
    out["cli.import_s"] = {"value": import_seconds(), "unit": "s"}
    return out


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import importlib

    import bicyclic  # noqa: F401  (imported before any tracer wraps it)
    import bicyclic.cli  # noqa: F401
    from workloads import Context

    module = importlib.import_module(f"workloads.{args.workload}")
    ctx = Context(root=ROOT, traced=bool(args.trace))
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    run = Run(module, args.seed, ctx, tracer)
    run.run_ops(module.warmup(args.seed, ctx), timed=False)
    run.rounds(args.seconds)
    metrics = per_layer(run) if args.trace else end_to_end(run, args.workload, args.seed)

    correct = not run.check_failures
    for message in sorted(run.known_faults):
        print(f"known fault, counted as failed: {message}", file=sys.stderr)
    for message in run.check_failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(run.round_walls)} "
        f"attempted={run.attempted} failed={run.failed} checks={run.checks_run} "
        f"check_failures={len(run.check_failures)}"
    )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process, one at a time."""
    from workloads import NAMES

    summary = {}
    ok = True
    for workload in NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            summary[(workload, trace)] = result
    print(f"{'workload':<11} {'metric':<16} {'value':>12}  unit")
    for workload in NAMES:
        plain = summary.get((workload, 0))
        traced = summary.get((workload, 1))
        if plain is None:
            continue
        print(f"{workload:<11} {'attempted':<16} {plain['attempted']:>12}")
        print(f"{workload:<11} {'failed':<16} {plain['failed']:>12}")
        print(f"{workload:<11} {'correct':<16} {str(plain['correct']):>12}")
        for name, m in plain["metrics"].items():
            print(f"{workload:<11} {name:<16} {m['value']:>12.6g}  {m['unit']}")
        if traced is not None:
            traced_wall = traced["metrics"]["trace.wall_s"]["value"]
            overhead = traced_wall - plain["metrics"]["wall_s"]["value"]
            print(f"{workload:<11} {'traced wall_s':<16} {traced_wall:>12.6g}  s")
            print(f"{workload:<11} {'trace overhead':<16} {overhead:>12.6g}  s")
    print(json.dumps({f"{w}/trace{t}": r for (w, t), r in summary.items()}, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", "families", "continuity", "symset", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bicyclic" / "__init__.py").is_file():
        print(f"error: no bicyclic sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
