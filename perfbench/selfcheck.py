#!/usr/bin/env python3
"""Exact-count self-check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload, runs the traced benchmark twice at one seed and once
at another, with --seconds 0: the workload's own script, in the fewest
passes a traced run makes. The count metrics (work, records, bytes, syncs, messages, plus
heap_live_mb and the attempted/failed op counts) must be identical
across the two runs at one seed, and must not all repeat at the second
seed. Exits 1 on any difference, 0 when every workload passes.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")

# Per-layer metrics that are counts: exact functions of the seed.
COUNTS = [
    "engine.alloc_words_per_elem",
    "engine.dt_node_updates_per_elem",
    "engine.dt_heap_ops_per_elem",
    "engine.dt_signals_per_elem",
    "engine.rebuilds",
    "durable.wal_records_per_op",
    "durable.checkpoints",
    "durable.fsyncs",
    "io.appends_per_op",
    "io.append_bytes_per_op",
    "io.syncs_per_op",
    "io.checkpoint_bytes_per_op",
    "io.read_bytes_per_op",
    "io.disk_mb",
    "net.msgs_per_frame",
    "serve.retries",
    "serve.overloaded",
    "recovery.records_scanned",
]

WORKLOADS = ["cli_mem", "cli_wal", "serve_churn"]


def counts(workload, seed):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    heap = re.search(r"heap_live_mb=([0-9.]+)", proc.stdout)
    got = {name: result["metrics"][name]["value"] for name in COUNTS}
    got["heap_live_mb"] = float(heap.group(1))
    got["attempted"] = result["attempted"]
    got["failed"] = result["failed"]
    if not result["correct"]:
        raise SystemExit("%s seed %d: correctness check failed" % (workload, seed))
    return got


def main():
    ok = True
    for workload in WORKLOADS:
        a, b, c = counts(workload, 1), counts(workload, 1), counts(workload, 2)
        diff = [k for k in a if a[k] != b[k]]
        same = [k for k in a if a[k] == c[k]]
        if diff:
            ok = False
            for k in diff:
                print("%s: %s differs at one seed: %r vs %r" % (workload, k, a[k], b[k]))
        if len(same) == len(a):
            ok = False
            print("%s: a second seed changed no count" % workload)
        print("%s: %d counts repeat exactly at seed 1; %d of them change at seed 2"
              % (workload, len(a) - len(diff), len(a) - len(same)))
    print("selfcheck: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
