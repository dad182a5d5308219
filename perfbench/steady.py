#!/usr/bin/env python3
"""Steadiness report: run each workload several times, each with its own
seed, and print the median, quartiles and spread of every end-to-end
metric against its bound in BENCHMARK.json.

    python3 perfbench/steady.py --runs 10 --seed0 1 [--workloads figures,fits]

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``.  It must stay within the metric's
bound (``setup_s`` is reported but exempt), every run must be correct and
every run must fail the same share of its operations.  The report, with
the environment, is also written as JSON (``--out``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT, WORK, environment


def run_once(command, workload, seed, seconds) -> tuple[dict, float]:
    t0 = time.perf_counter()
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
    return json.loads(lines[-1]), wall


def summarise(spec, results) -> tuple[dict, bool]:
    ok = True
    rows = {}
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        exempt = name == "setup_s"
        within = exempt or spread <= bound
        ok &= within
        rows[name] = {"values": values, "q1": q1, "median": med, "q3": q3, "spread": spread, "bound": bound,
                      "within_bound": within, "within_third": spread <= bound / 3}
        flag = "exempt" if exempt else ("ok" if spread <= bound / 3 else "ok (over bound/3)" if within else "OVER")
        print(f"  {name:12s} median {med:14.4f} {metric['unit']:6s} q1 {q1:14.4f} q3 {q3:14.4f} "
              f"spread {spread:7.4f} bound {bound:5.3f}  {flag}")
    shares = sorted({f"{r['failed']}/{r['attempted']}" for r in results},
                    key=lambda t: int(t.split("/")[1]))
    exact = len({r["failed"] / r["attempted"] for r in results}) == 1
    correct = all(r["correct"] for r in results)
    ok &= exact and correct
    print(f"  correct in every run: {correct}; failed share identical in every run: {exact} "
          f"({', '.join(shares)})")
    return {"metrics": rows, "correct": correct, "failed_share_identical": exact,
            "failed_over_attempted": shares}, ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="seed of the first run; later runs count up")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out", type=Path, default=WORK / "steady.json")
    args = parser.parse_args(argv)

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    report = {"env": env, "runs": args.runs, "seed0": args.seed0, "run_seconds": spec["run_seconds"],
              "workloads": {}}
    all_ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.seed0, args.seed0 + args.runs):
            result, wall = run_once(spec["command"], workload, seed, spec["run_seconds"])
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        print(f"{workload} over {args.runs} runs:")
        report["workloads"][workload], ok = summarise(spec, results)
        all_ok &= ok
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1))
    print(f"report written to {args.out}; {'steady' if all_ok else 'NOT steady'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
