#!/usr/bin/env python3
"""Build perfbench from source and run one workload.

    python3 perfbench/run.py --workload cli_mem|cli_wal|serve_churn \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build (and the compiler's temporary
files) goes to .bench_build and the run's scratch files (WAL directory,
span dump) to .bench_work/<workload>, both inside the checkout. The last line of standard output is the JSON
result printed by the benchmark binary. The exit code is the binary's,
or 2 if the build fails.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
WORKLOADS = ["cli_mem", "cli_wal", "serve_churn"]
# Beyond --seconds, a run sets up, checks and recovers; this bounds that.
TIMEOUT_MARGIN_S = 140


def build():
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/perfbench.exe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(proc.stdout)
    return proc.returncode == 0 and os.path.isfile(os.path.join(ROOT, EXE))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    cmd = [os.path.join(".", EXE), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work", os.path.join(WORK_DIR, args.workload)]
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=args.seconds + TIMEOUT_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
