#!/usr/bin/env python3
"""SciDock benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a SciDock checkout. Builds the harness (perfbench/,
which builds the SciDock libraries from ../src) into $CARGO_TARGET_DIR or
.bench_build/, runs one workload and prints its result JSON as the last
line. Exits non-zero without a result when the checkout has no SciDock
sources, the build fails, or a run fails a correctness check.

A timed run (--trace 0) splits --seconds over PROCESSES harness processes
and reports, per metric, the mean of their medians: on the host this was
tuned on, memory-heavy phases (the SQL suite, the simulator) ran up to 1.5x
faster or slower depending on the process, steadily within one process.
Every process of a replay must report the same determinism fingerprint. A
traced run (--trace 1) is one process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("screen_paper", "screen_wide", "campaign_replay")
PROCESSES = 3
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SciDock sources next to {HERE.name}/ (need CMakeLists.txt and src/)")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return build_dir / "perfbench"


def run_harness(binary, args, seconds, timeout):
    """One harness process; returns its (info, result) JSON objects."""
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:.0f} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"{args.workload} exited with code {done.returncode}")
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def combine(runs):
    """Per-metric mean over processes; counts add up.

    A process's millisecond-scale timings (a screen's queries and reopens)
    sit in one of two modes about 1.4x apart, so the median of three
    processes flips between modes while the mean moves in thirds.
    """
    infos = [info for info, _ in runs]
    results = [result for _, result in runs]
    # The replay's fingerprint is a gate; a screen's FEB/RMSD digest is not.
    fingerprints = {info.get("fingerprint") for info in infos}
    if len(fingerprints) != 1:
        fail(f"processes disagree on the replay fingerprint: {fingerprints}")
    metrics = {
        name: {"value": statistics.fmean(r["metrics"][name]["value"] for r in results),
               "unit": metric["unit"]}
        for name, metric in results[0]["metrics"].items()
    }
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    return {"processes": infos}, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if args.trace:
        info, result = run_harness(binary, args, args.seconds, RUN_TIMEOUT_S)
    else:
        info, result = combine([
            run_harness(binary, args, args.seconds / PROCESSES,
                        RUN_TIMEOUT_S / PROCESSES)
            for _ in range(PROCESSES)])
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
