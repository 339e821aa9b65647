# Developer entry points. `make check` is what CI runs.

DUNE ?= dune
SMOKE_SCALE ?= 0.05
# Pinned seeds for the deterministic crash-equivalence sweep; override
# with RTS_FAULT_SEEDS=a,b,c to explore other trajectories.
RTS_FAULT_SEEDS ?= 11,23,47
# Pinned seeds for the networked-DT equivalence sweep (drop/dup/reorder
# fault trajectories); override with RTS_NET_SEEDS=a,b,c.
RTS_NET_SEEDS ?= 7,19,101
# Pinned seeds for the sharded-ingestion equivalence sweep (merged
# output vs unsharded, all executors); override with RTS_SHARD_SEEDS=a,b,c.
RTS_SHARD_SEEDS ?= 5,17,91
# Pinned seeds for the combined-fault serving soak (simultaneous storage
# crash/short-write/ENOSPC plans and network drop/dup/reorder, verified
# against the WAL oracle); override with RTS_SERVE_SEEDS=a,b,c.
RTS_SERVE_SEEDS ?= 3,13,29
# Pinned seeds for the replicated-serving failover soak (primary kill /
# wedge under combined storage+network faults, promoted log verified
# against the fault-free oracle); override with RTS_REPLICA_SEEDS=a,b,c.
RTS_REPLICA_SEEDS ?= 2,11,23
# Pinned seeds for the approximate-tier equivalence sweep (crprecis and
# heavy maturity logs held to "late subset of the exact baseline" on
# paper-style scenarios); override with RTS_APPROX_SEEDS=a,b,c.
RTS_APPROX_SEEDS ?= 7,21,63

.PHONY: all build lint test bench-smoke bench-perf bench-alloc bench-shard \
        bench-approx diff-bench check check-fault check-net check-shard \
        check-serve check-replica check-approx clean

all: build

build:
	$(DUNE) build @all

# Fast formatting/type gate: builds every module (including ones not yet
# linked into an executable) without running anything. CI runs this first
# and fails fast before spending minutes on the test matrix.
lint:
	$(DUNE) build @check
	@echo "lint: OK"

test: build
	$(DUNE) runtest

# Small-scale benchmark smoke in --json mode: exercises the traced
# scenario driver and the metrics plumbing end to end, then re-parses
# the BENCH_*.json output and enforces the DT message budget.
bench-smoke: build
	$(DUNE) exec bench/main.exe -- fig4 --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec bench/main.exe -- fig6 --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe BENCH_fig4.json BENCH_fig6.json

# Perf smoke: run the batched-ingestion benchmark at the smoke scale
# (deterministic work counters for a pinned seed), then hold the
# BENCH_perf.json output to the checked-in budgets. Wall clock is
# reported but NOT gated -- only work-counter regressions fail the job.
bench-perf: build
	$(DUNE) exec bench/main.exe -- perf --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe -- --perf-budgets tools/perf_budgets.json BENCH_perf.json

# Allocation gate: the same perf run, held to BOTH budget sets -- the
# work counters AND the zero-allocation contract of the DT hot path
# (allocated_words_per_element = 0 at every batch size, no tolerance:
# Rts_obs.Alloc calibrates out its own bracket overhead, so a genuinely
# allocation-free feed reports exactly 0 on every compiler leg). A
# single boxed float argument or stray closure on the feed path fails
# this target.
bench-alloc: build
	$(DUNE) exec bench/main.exe -- perf --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe -- \
	  --perf-budgets tools/perf_budgets.json \
	  --alloc-budgets tools/alloc_budgets.json BENCH_perf.json

# Shard smoke: run the sharded-ingestion benchmark (k = 1/2/4/8 curve,
# maturity log asserted bit-identical to the unsharded reference inside
# the bench itself), then hold BENCH_shard.json to the checked-in
# per-(engine, k) work-counter budgets. Counters are executor-invariant:
# seq and domains executors do identical work, so the same budgets gate
# both CI legs. Wall clock (and hence speedup) is informational only --
# a single-core runner cannot show parallel speedups at all.
bench-shard: build
	$(DUNE) exec bench/main.exe -- shard --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe -- --shard-budgets tools/shard_budgets.json BENCH_shard.json

# Approximate-tier bench smoke: sketch footprint, certified error vs a
# brute-force exact scan, never-early + top-n parity verdicts (the bench
# aborts before emitting JSON if either fails), held to the checked-in
# per-engine budgets. Everything gated is deterministic per (scale,
# seed) — the sketches use no hash families — so the budgets carry no
# tolerance band, and approx_bound_violations must be exactly 0.
bench-approx: build
	$(DUNE) exec bench/main.exe -- approx --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe -- --approx-budgets tools/approx_budgets.json BENCH_approx.json

# Approximate-tier suite on its own: qcheck certified-bound containment
# and never-early properties against brute-force references, top-n
# threshold-search exactness, and the pinned-seed scenario sweep (every
# approximate maturity also matures in the exact baseline, no earlier),
# then the bench-approx budget gate. CI runs this as a separate job on
# both compiler legs.
check-approx: build
	RTS_APPROX_SEEDS=$(RTS_APPROX_SEEDS) $(DUNE) exec test/test_approx.exe
	$(MAKE) bench-approx
	@echo "check-approx: OK"

# Bench-budget drift report: for every budgeted work counter, print a
# markdown delta table (budget / actual / headroom / drift) so a counter
# creeping toward its ceiling is visible long before it trips the gate.
# Exits 1 if any counter is OVER budget; LOOSE rows (actual < 50% of
# budget) are informational hints to tighten the budget. Requires
# BENCH_perf.json, BENCH_shard.json and BENCH_approx.json (run
# bench-perf / bench-shard / bench-approx first, or let this target
# produce them).
diff-bench: bench-perf bench-shard bench-approx
	$(DUNE) exec tools/diff_bench.exe -- \
	  --budgets tools/perf_budgets.json BENCH_perf.json \
	  --budgets tools/alloc_budgets.json BENCH_perf.json \
	  --budgets tools/shard_budgets.json BENCH_shard.json \
	  --budgets tools/approx_budgets.json BENCH_approx.json

# Fault-injection suite on its own: crash the durable engine at every op
# boundary (torn writes, bit flips, corrupt checkpoints) for the pinned
# seeds and assert the recovered maturity log is bit-identical to an
# uninterrupted run. CI runs this as a separate job.
check-fault: build
	RTS_FAULT_SEEDS=$(RTS_FAULT_SEEDS) $(DUNE) exec test/test_resilience.exe
	@echo "check-fault: OK"

# Networked-DT suite on its own: zero-fault parity, maturity-ordinal
# equivalence under lossy/reordering/duplicating links, the exhaustive
# drop-of-every-envelope-kind sweep and degradation behaviour, for the
# pinned seeds; then a bench net --json smoke whose net_* fields are
# re-validated. CI runs this as a separate job.
check-net: build
	RTS_NET_SEEDS=$(RTS_NET_SEEDS) $(DUNE) exec test/test_net.exe
	$(DUNE) exec bench/main.exe -- net --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe BENCH_net.json
	@echo "check-net: OK"

# Sharded-ingestion suite on its own: rendezvous-hash properties, the
# executor pool contract, randomized step-by-step equivalence episodes,
# and the pinned-seed scenario sweep (k in {1,2,4}, every engine, both
# executors where the toolchain provides Domains) asserting the merged
# maturity log is verbatim-identical to the unsharded run. CI runs this
# as a separate job on both the 4.14 (seq) and 5.x (domains) legs.
check-shard: build
	RTS_SHARD_SEEDS=$(RTS_SHARD_SEEDS) $(DUNE) exec test/test_shard.exe
	@echo "check-shard: OK"

# Serving suite on its own: frame codec, typed admission refusals,
# backpressure, watchdog wedge recovery, and the combined-fault soak
# (storage faults + net faults at once) for the pinned seeds, asserting
# the maturity stream every subscriber saw is bit-identical to the WAL
# oracle — exactly once, never early, across every crash and restart.
# Then one soak through the real rts-serve binary for an end-to-end
# smoke. CI runs this as a separate job on both compiler legs.
check-serve: build
	RTS_SERVE_SEEDS=$(RTS_SERVE_SEEDS) $(DUNE) exec test/test_serve.exe
	$(DUNE) exec bin/rts_serve.exe -- soak --seed 3 --quiet
	@echo "check-serve: OK"

# Replicated-serving suite on its own: rep codec, clean replication,
# kill/wedge failover with zombie fencing, and the pinned-seed replica
# soak — the promoted node's merged maturity log (archived segments +
# surviving chain) must be bit-identical to the fault-free oracle, with
# WAL disk bounded by segment pruning below the replication ack floor.
# Then two failover soaks through the real rts-serve binary under
# aggressive segment rotation (the rotation stress leg). CI runs this
# as a separate job on both compiler legs.
check-replica: build
	RTS_REPLICA_SEEDS=$(RTS_REPLICA_SEEDS) $(DUNE) exec test/test_replica.exe
	$(DUNE) exec bin/rts_serve.exe -- failover-soak --seed 3 \
	  --segment-records 16 --checkpoint-every 43 --quiet
	$(DUNE) exec bin/rts_serve.exe -- failover-soak --seed 7 --scenario wedge \
	  --segment-records 16 --quiet
	@echo "check-replica: OK"

check: build test bench-smoke
	@echo "check: OK"

clean:
	$(DUNE) clean
	rm -f BENCH_*.json
