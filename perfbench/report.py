"""Run every workload untraced and traced, and print one report.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this prints every end-to-end metric with its unit and
sample count, the failed share (failed jobs / attempted jobs), every
per-layer metric including the tracing overhead ``trace.overhead_s``
(traced minus untraced pass time), and each layer's share of the
traced pass.  It also times the repository's tier-1 test suite (about
a minute); like the rest of the context (machine, Python, commit, seed,
``src/`` line count) that is recorded but not gated.  Exits 1 if any
job failed its output check.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("certify", "construct-cold", "span-stabilizer")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return wall, tail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()
    any_failed = False
    context_printed = False
    for workload in WORKLOADS:
        plain_lines, plain = run(workload, args.seed, args.seconds, 0)
        traced_lines, traced = run(workload, args.seed, args.seconds, 1)
        for line in plain_lines + traced_lines:
            if line.startswith("context "):
                if not context_printed:
                    print(line)
                    context_printed = True
                continue
            print(line)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        any_failed |= failed > 0
        print(f"{workload} failed_share = {failed / attempted:.6g} ratio (n={attempted})")
    wall, tail = tier1()
    print(f"context tier1_wall_s = {wall:.1f} s ({tail})")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
