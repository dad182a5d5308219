#!/usr/bin/env python3
"""Benchmark for the phacking reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run measures the workload with tracing off and
reports the end-to-end metrics.  With ``--trace 1`` it runs half the time
untraced and half traced (the difference is the tracing overhead), then
probes every layer and reports the per-layer metrics.  Either way the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  ``--workload all`` runs the four workloads one after
another, each in its own process.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock starts before the imports)
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from statistics import median, quantiles  # noqa: E402

from common import SRC, WORK, checkout_problem, environment, run_child  # noqa: E402
from spans import NULL, Tracer, span_cost_ns  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups measured per run; setup_s is their median.
SETUPS = 3
#: A timing percentile needs ten samples beyond it.
P90_MIN_OPS = 100
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}


class Phase:
    """Operations of one measured phase: their wall times and verdicts.
    ``elapsed`` leaves out the time spent checking outputs."""

    def __init__(self):
        self.times: list[float] = []
        self.verdicts: list = []
        self.elapsed = 0.0


def measure(wl, seconds: float, tracer, first: int = 0) -> Phase:
    """Run whole rounds until ``seconds`` have passed."""
    phase = Phase()
    i = first
    checking = 0.0
    t0 = time.perf_counter()
    while True:
        for _ in range(wl.round_size):
            plan = wl.plan(i)
            t = time.perf_counter()
            with tracer.span("bench.op"):
                result = wl.op(plan, tracer)
            t_done = time.perf_counter()
            phase.times.append(t_done - t)
            phase.verdicts.append(wl.verdict(*wl.record(i, plan, result)))
            checking += time.perf_counter() - t_done
            i += 1
        wall = time.perf_counter() - t0
        if wall >= seconds:
            phase.elapsed = wall - checking
            return phase


class Outcome:
    """Checked operations: how many were attempted and failed, and the
    problems that make the run incorrect (failures outside the known
    faults, and run-level checks)."""

    def __init__(self, wl, verdicts):
        self.attempted = len(verdicts)
        self.failed = sum(not v.ok for v in verdicts)
        self.problems = [f"{v.kind}: {v.detail}" for v in verdicts
                         if not v.ok and v.kind not in wl.known_faults]
        self.problems += wl.run_checks()
        faults = []
        for kind in sorted(wl.known_faults):
            mine = [v for v in verdicts if v.kind == kind]
            faults.append(f"{kind} {sum(not v.ok for v in mine)}/{len(mine)} failed")
        self.faults = ", ".join(faults)

    def report(self):
        known = f" (known faults: {self.faults})" if self.faults else ""
        print(f"attempted {self.attempted}  failed {self.failed}{known}")
        for problem in self.problems[:10]:
            print(f"INCORRECT {problem}")

    def record(self, metrics, units) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def print_header(args):
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in environment().items()))


def setup_in_child(workload: str, seed: int, work: Path) -> float:
    result = run_child([sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
                        "--setup-only"], work)
    if result.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {result.stderr[-500:]}")
    return json.loads(result.stdout.splitlines()[-1])["setup_s"]


def run_plain(wl, args, setup_s: float) -> dict:
    phase = measure(wl, args.seconds, NULL)
    setups = [setup_s] + [setup_in_child(args.workload, args.seed, wl.work / f"setup-{k}")
                          for k in range(1, SETUPS)]
    outcome = Outcome(wl, phase.verdicts)
    metrics = {
        "setup_s": median(setups),
        "ops_per_s": len(phase.times) / phase.elapsed,
        "op_p50_ms": median(phase.times) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    n = len(phase.times)
    print_header(args)
    print(f"setup_s      {metrics['setup_s']:12.4f} s      median of {SETUPS} set-ups "
          f"({', '.join(f'{s:.4f}' for s in setups)})")
    print(f"ops_per_s    {metrics['ops_per_s']:12.4f} ops/s  {n} ops in {phase.elapsed:.3f} s")
    print(f"op_p50_ms    {metrics['op_p50_ms']:12.4f} ms     n={n}")
    if n >= P90_MIN_OPS:
        print(f"op_p90_ms    {quantiles(phase.times, n=10)[-1] * 1e3:12.4f} ms     n={n}")
    else:
        print(f"op_p90_ms    {'-':>12} ms     not reported: n={n} < {P90_MIN_OPS}")
    print(f"peak_rss_mb  {metrics['peak_rss_mb']:12.4f} MB     "
          f"{'largest child process' if wl.name == 'cli-session' else 'benchmark process'}")
    outcome.report()
    return outcome.record(metrics, END_TO_END_UNITS)


def run_traced(wl, args, tracer: Tracer) -> dict:
    import layers

    half = args.seconds / 2.0
    plain = measure(wl, half, NULL)
    traced = measure(wl, half, tracer, first=len(plain.times))
    probe = layers.Probe(tracer, wl.work / "probe")
    metrics = probe.run()
    outcome = Outcome(wl, plain.verdicts + traced.verdicts)

    print_header(args)
    print("per-layer metrics (fixed probe inputs):")
    for name, unit, _ in layers.METRICS:
        print(f"  {name:30s} {metrics[name]:14.4f} {unit}")
    print(f"  mc bytes written by the five float64 draws per simulate: {5 * 8 * layers.MC_N} B "
          "(computed from array sizes, not measured)")
    workload_spans = tracer.trees("bench.op")
    for title, spans in ((f"{wl.name} workload spans ({len(traced.times)} ops traced)", workload_spans),
                         ("probe spans", tracer.trees("probe"))):
        print(f"self time per layer, {title}:")
        for layer, (ms, count) in sorted(tracer.self_times(spans).items()):
            print(f"  {layer:12s} {ms:12.3f} ms  {count:7d} spans")
    p50_plain, p50_traced = median(plain.times) * 1e3, median(traced.times) * 1e3
    spans_per_op = len(workload_spans) / len(traced.times)
    print(f"tracing overhead: op_p50 {p50_plain:.4f} ms untraced ({len(plain.times)} ops), "
          f"{p50_traced:.4f} ms traced ({len(traced.times)} ops), "
          f"difference {100 * (p50_traced - p50_plain) / p50_plain:+.2f}%; "
          f"{spans_per_op:.1f} spans per op at {span_cost_ns():.0f} ns each")
    trace_dir = WORK / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_path = trace_dir / f"{wl.name}-seed{args.seed}.json"
    tracer.write(trace_path)
    print(f"spans written to {trace_path}")
    outcome.report()
    return outcome.record(metrics, layers.UNITS)


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        print(f"=== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)])
        worst = max(worst, proc.returncode)
    return worst


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="workload seed; inputs derive from it")
    parser.add_argument("--seconds", type=float, default=40.0, help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process, print it and exit (used for setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    problem = checkout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else NULL
    try:
        wl.setup(tracer)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        record = run_traced(wl, args, tracer) if args.trace else run_plain(wl, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
