#!/usr/bin/env python3
"""Build the scenario benchmark from this checkout's sources, then run it.

    python3 scenbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first call configures and builds
bench_scenarios (and the htpb_run fleet worker) under .bench_build/scenbench;
later calls only let the build tool confirm it is up to date. Every argument
is handed to bench_scenarios unchanged (see bench_scenarios.cpp for the
options); the last line it prints is the run's JSON result.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "scenbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources next to scenbench/ (src/ is "
                 "missing); run from a full checkout of the repository")
    # Build output goes to stderr: stdout carries only the benchmark's lines.
    out = sys.stderr
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=out)
    subprocess.run(["cmake", "--build", BUILD, "--target", "bench_scenarios",
                    "-j", "2"], check=True, stdout=out)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    # A child, not exec: getrusage(RUSAGE_CHILDREN) survives exec, and the
    # compiler's footprint must not count towards the fleet workload's
    # peak RSS.
    exe = os.path.join(BUILD, "bench_scenarios")
    sys.stdout.flush()
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
