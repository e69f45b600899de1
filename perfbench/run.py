#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The binary is configured as a Release build under .bench_build/perfbench
in the repository root (the first run compiles the repository's libraries
there; later runs only check that the build is current).  Build output
goes to stderr, so the last line of stdout is the binary's JSON result.
A traced run (--trace 1) also writes its per-layer metrics to
.bench_build/perfbench/layers/<workload>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("city", "cell_churn", "signal_scan", "chaos_recovery")


def build():
    """Configures (once) and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-written cache would skip configuring next time.
            shutil.rmtree(BUILD, ignore_errors=True)
            return None
    step = ["cmake", "--build", str(BUILD), "--target", "perfbench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return BUILD / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        print("error: could not build the perfbench binary", file=sys.stderr)
        return 1
    if args.self_test:
        return subprocess.run([str(binary), "--self-test"]).returncode
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        layers = BUILD / "layers"
        layers.mkdir(exist_ok=True)
        command += ["--layers-out", str(layers / (args.workload + ".json"))]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
