#!/usr/bin/env python3
"""Benchmark command: build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds ./perfbench/main.exe with
dune (the first build compiles the whole library stack) and hands the
arguments on; the last line of output is the run's JSON result.  Exits
non-zero, printing no result, when the build fails.
"""
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the root of a spacebounds checkout")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("perfbench: build failed")
    sys.stdout.flush()
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
