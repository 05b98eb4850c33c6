#!/usr/bin/env python3
"""Run workloads over several seeds and report each end-to-end metric's
median and spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [workload ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = {}
    for w in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{out.stderr}")
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            steal = next((json.loads(l)["context"].get("steal_s") for l in lines
                          if l.startswith('{"context"')), "?")
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: correctness checks failed")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(f"{w} seed {seed}: done, host steal {steal} s", file=sys.stderr)
        print(f"\n{w} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER")
            print(f"  {name:<16} median {med:>14.6f}  spread {spread:6.3f}  bound {bound:.2f}  {flag}"
                  f"  [{' '.join(f'{v:.4g}' for v in values)}]")
            if name != "setup_s":
                worst[(w, name)] = spread / bound
    over = [k for k, v in worst.items() if v > 1]
    print("\nall spreads within bounds" if not over else f"\nover bound: {over}")


if __name__ == "__main__":
    main()
