#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and reports the spread.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--workloads a,b]
                                [--seconds S] [--traced]

Each run uses its own seed (seed0, seed0 + 1, ...).  For every end-to-end
metric of every workload it prints the median, the first and third
quartiles (statistics.quantiles, n=4), the quartile spread as a share of
the median (the figure each BENCHMARK.json bound is set against; it should
stay under a third of the bound), and the largest relative spread
(max - min) / median.  It also prints each workload's failed share, which
must be identical in every run.  With --traced it makes one extra traced
run per workload and prints the tracing overhead: the traced run's
sim_speed against the untraced median.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: checks failed\n{out.stderr}")
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    steady = True
    for workload in args.workloads.split(","):
        results = [run(workload, args.seed0 + i, args.seconds, 0)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs x {args.seconds} s, "
              f"failed share {sorted(shares)}", flush=True)
        if len(shares) != 1:
            steady = False
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            q1, med, q3 = statistics.quantiles(values, n=4)
            iqr = (q3 - q1) / med
            widest = (max(values) - min(values)) / med
            flag = ""
            if iqr >= bound / 3 and name != "setup_s":
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:12s} median {med:.6g} {unit}  q1 {q1:.6g}  "
                  f"q3 {q3:.6g}  iqr/median {iqr:.3f}  "
                  f"max-min/median {widest:.3f}  bound {bound}{flag}",
                  flush=True)
        if args.traced:
            traced = run(workload, args.seed0, args.seconds, 1)
            layers = json.loads((ROOT / ".bench_build" / "perfbench" / "layers"
                                 / f"{workload}.json").read_text())
            speed = layers["traced_end_to_end"]["metrics"]["sim_speed"]["value"]
            untraced = statistics.median(
                r["metrics"]["sim_speed"]["value"] for r in results)
            print(f"  tracing overhead: traced sim_speed {speed:.6g} vs "
                  f"untraced median {untraced:.6g} "
                  f"({100 * (untraced / speed - 1):+.1f}%); "
                  f"{len(traced['metrics'])} per-layer metrics", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
