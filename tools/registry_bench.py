#!/usr/bin/env python3
"""Registry wall times: each registered scenario, full size, 1 and 4 threads.

    python3 tools/registry_bench.py [--htpb-run build/tools/htpb_run]
                                    [--out BENCH_registry.json]

Runs each scenario `htpb_run --list` names, without --quick, with
--threads 1 and --threads 4, and writes every run's `timing.seconds` (the
scenario's own wall time, process start-up excluded) to the --out JSON
file. Build htpb_run as Release first; a Debug build measures the wrong
thing.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

THREADS = (1, 4)


def htpb_run(binary, args):
    return subprocess.run([binary] + args, check=True, capture_output=True,
                          text=True).stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--htpb-run", default=os.path.join("build", "tools",
                                                       "htpb_run"))
    ap.add_argument("--out", default="BENCH_registry.json")
    opts = ap.parse_args()

    scenarios = [line.split()[0]
                 for line in htpb_run(opts.htpb_run, ["--list"]).splitlines()
                 if line.strip()]
    runs = []
    totals = {str(t): 0.0 for t in THREADS}
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree.json")
        for t in THREADS:
            for name in scenarios:
                htpb_run(opts.htpb_run, ["--scenario", name, "--threads",
                                         str(t), "--json", tree])
                with open(tree) as f:
                    seconds = json.load(f)["timing"]["seconds"]
                runs.append({"scenario": name, "threads": t,
                             "seconds": seconds})
                totals[str(t)] += seconds
                print(f"{name:<22} threads={t:<3} {seconds:8.3f} s",
                      file=sys.stderr)

    result = {
        "command": "python3 tools/registry_bench.py",
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                    "system": platform.system()},
        "runs": runs,
        "total_seconds": totals,
    }
    with open(opts.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {opts.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
