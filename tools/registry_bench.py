#!/usr/bin/env python3
"""Registry wall times: each registered scenario, full size, 1 and 4 threads.

    python3 tools/registry_bench.py [--htpb-run build/tools/htpb_run]
                                    [--out BENCH_registry.json]
                                    [--baseline PATH]

Runs each scenario `htpb_run --list` names, without --quick, with
--threads 1 and --threads 4, and writes every run's `timing.seconds` (the
scenario's own wall time, process start-up excluded) to the --out JSON
file, with the command line that wrote it. Build htpb_run as Release first; a Debug build
measures the wrong thing.

Without --baseline the file holds one run per scenario and thread count,
labelled "single-session": absolute seconds that machine load moves, so
two such files from different sessions cannot show a regression.

With --baseline PATH (another build's htpb_run, e.g. the parent commit's)
each scenario and thread count runs K = 10 times on each side, alternating
the two binaries (the side that goes first swaps every repetition). The
file records both sides' medians and interquartile ranges, the ratio of
the medians (change / baseline; below 1 is faster), how many of the K
pairs the change won, and whether the medians differ by more than the
baseline's IQR, plus `git describe --always --dirty` of each side's
checkout. A difference is measured only when the medians differ by more
than that IQR and the same side wins at least nine of the ten pairs; one
or the other alone is noise.
"""
import argparse
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile

THREADS = (1, 4)
K = 10  # runs per side with --baseline: ten pairs


def htpb_run(binary, args):
    return subprocess.run([binary] + args, check=True, capture_output=True,
                          text=True).stdout


def timed_run(binary, name, threads, tree):
    """One full-size run's `timing.seconds`."""
    htpb_run(binary, ["--scenario", name, "--threads", str(threads),
                      "--json", tree])
    with open(tree) as f:
        return json.load(f)["timing"]["seconds"]


def commit_of(binary):
    """`git describe --always --dirty` of the checkout `binary` sits in
    (a "-dirty" suffix marks uncommitted changes), or None."""
    try:
        return subprocess.run(
            ["git", "-C", os.path.dirname(os.path.abspath(binary)),
             "describe", "--always", "--dirty"],
            check=True, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summary(seconds):
    q1, _, q3 = statistics.quantiles(seconds, n=4, method="inclusive")
    return {"median": statistics.median(seconds), "iqr": q3 - q1,
            "seconds": seconds}


def single_session(opts, scenarios, tree):
    runs = []
    totals = {str(t): 0.0 for t in THREADS}
    for t in THREADS:
        for name in scenarios:
            seconds = timed_run(opts.htpb_run, name, t, tree)
            runs.append({"scenario": name, "threads": t,
                         "seconds": seconds})
            totals[str(t)] += seconds
            print(f"{name:<22} threads={t:<3} {seconds:8.3f} s",
                  file=sys.stderr)
    return {"mode": "single-session", "runs": runs,
            "total_seconds": totals}


def same_session(opts, scenarios, tree):
    sides = {"baseline": opts.baseline, "change": opts.htpb_run}
    rows = []
    for t in THREADS:
        for name in scenarios:
            seconds = {side: [] for side in sides}
            for rep in range(K):
                order = list(sides) if rep % 2 == 0 else list(sides)[::-1]
                for side in order:
                    seconds[side].append(
                        timed_run(sides[side], name, t, tree))
            base = summary(seconds["baseline"])
            change = summary(seconds["change"])
            ratio = (change["median"] / base["median"]
                     if base["median"] > 0 else None)
            beyond = abs(change["median"] - base["median"]) > base["iqr"]
            wins = sum(c < b for c, b in zip(seconds["change"],
                                             seconds["baseline"]))
            rows.append({"scenario": name, "threads": t, "baseline": base,
                         "change": change, "ratio": ratio,
                         "change_faster_pairs": wins,
                         "shift_beyond_baseline_iqr": beyond})
            shown = "n/a" if ratio is None else f"{ratio:6.3f}"
            print(f"{name:<22} threads={t:<3} {base['median']:8.3f} -> "
                  f"{change['median']:8.3f} s  ratio {shown}  "
                  f"faster {wins}/{K}{'  *' if beyond else ''}",
                  file=sys.stderr)
    return {
        "mode": "same-session",
        "k": K,
        "baseline": {"htpb_run": opts.baseline,
                     "commit": commit_of(opts.baseline)},
        "change": {"htpb_run": opts.htpb_run,
                   "commit": commit_of(opts.htpb_run)},
        "rows": rows,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--htpb-run", default=os.path.join("build", "tools",
                                                       "htpb_run"))
    ap.add_argument("--out", default="BENCH_registry.json")
    ap.add_argument("--baseline", metavar="PATH",
                    help="the htpb_run to compare against, same session")
    opts = ap.parse_args()

    scenarios = [
        line.split()[0]
        for line in htpb_run(opts.htpb_run, ["--list"]).splitlines()
        if line.strip()]
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree.json")
        body = (same_session(opts, scenarios, tree) if opts.baseline
                else single_session(opts, scenarios, tree))

    result = {
        "command": shlex.join(["python3"] + sys.argv),
        "machine": {"cpus": os.cpu_count(), "arch": platform.machine(),
                    "system": platform.system()},
    }
    result.update(body)
    with open(opts.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {opts.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
