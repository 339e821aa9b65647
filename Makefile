# Developer entry points. `make check` is what CI runs.

DUNE ?= dune
SMOKE_SCALE ?= 0.05

.PHONY: all build lint test bench-smoke bench-gate check loc clean

all: build

build:
	$(DUNE) build @all

# Fast formatting/type gate: builds every module (including ones not yet
# linked into an executable) without running anything. CI runs this first
# and fails fast before spending minutes on the test matrix.
lint:
	$(DUNE) build @check
	@echo "lint: OK"

# Every test suite. Each suite's pinned seeds live in its test file and
# print as the suite starts; RTS_<SUITE>_SEEDS=a,b,c (FAULT, NET, SHARD,
# SERVE, REPLICA, APPROX) replaces them and QCHECK_COUNT scales the
# qcheck properties, as the nightly sweep does. One suite on its own:
# dune exec test/test_<suite>.exe.
test: build
	$(DUNE) runtest

# Small-scale benchmark smoke in --json mode: exercises the traced
# scenario driver and the metrics plumbing end to end, then re-parses
# the BENCH_*.json output and enforces the DT message budget.
bench-smoke: build
	$(DUNE) exec bench/main.exe -- fig4 --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec bench/main.exe -- fig6 --scale $(SMOKE_SCALE) --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe BENCH_fig4.json BENCH_fig6.json

# The bench gate: run the three budgeted benchmarks at the smoke scale
# (batched ingestion, the shard k = 1/2/4/8 curve whose merged maturity
# log the bench itself asserts bit-identical to the unsharded run, and
# the approximate tier whose never-early and top-n verdicts it asserts),
# then validate all three documents against tools/budgets.json. Every
# gated number is deterministic per (scale, seed): work counters under
# their ceilings, allocated_words_per_element = 0 on every DT perf run,
# approx_bound_violations = 0. Prints one markdown drift table per
# document (budget / actual / headroom / drift / OK-LOOSE-OVER); wall
# clock is listed but never gated.
bench-gate: build
	$(DUNE) exec bench/main.exe -- perf --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec bench/main.exe -- shard --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec bench/main.exe -- approx --scale $(SMOKE_SCALE) --reps 3 --json > /dev/null
	$(DUNE) exec tools/validate_bench.exe -- --budgets tools/budgets.json \
	  BENCH_perf.json BENCH_shard.json BENCH_approx.json

# What CI's build-test job runs on both compiler legs: the tests, the
# bench smoke, then four soaks through the real rts-serve binary — one
# server under storage+network faults and tenant wedges (zero replicas,
# no pruning), the same again checkpointing every 13 ops so crashes
# keep landing in the window where a checkpoint seals the WAL into a
# segment, and two replicated failover soaks (primary kill, then wedge)
# checkpointing every 16 ops, so segments are sealed and pruned often.
check: build test bench-smoke
	$(DUNE) exec bin/rts_serve.exe -- soak --seed 3 --replicas 0 \
	  --scenario clean --tenants 3 --queries 40 \
	  --elements 600 --churn 0.15 --faulty-incarnations 4 --crash-every 150 \
	  --wedges 2 --net-faults drop=0.1,dup=0.05,reorder=0.2 \
	  --fsync-every 7 --checkpoint-every 97 --quiet
	$(DUNE) exec bin/rts_serve.exe -- soak --seed 3 --replicas 0 \
	  --scenario clean --tenants 3 --queries 40 \
	  --elements 600 --churn 0.15 --faulty-incarnations 4 --crash-every 150 \
	  --wedges 2 --net-faults drop=0.1,dup=0.05,reorder=0.2 \
	  --fsync-every 7 --checkpoint-every 13 --quiet
	$(DUNE) exec bin/rts_serve.exe -- soak --seed 3 --checkpoint-every 16 --quiet
	$(DUNE) exec bin/rts_serve.exe -- soak --seed 7 --scenario wedge \
	  --checkpoint-every 16 --quiet
	@echo "check: OK"

# Lines in tracked files per source directory (lib also split into .ml
# and .mli), read from the working tree. LOC_BASE=<commit> adds each
# row's net change since that commit, e.g. `make -s loc LOC_BASE=HEAD~1`.
# Informational: nothing gates on it.
LOC_PATHS = lib 'lib/*.ml' 'lib/*.mli' bin bench tools test perfbench
LOC_BASE ?=

loc:
	@for p in $(LOC_PATHS); do \
	  n=$$(git ls-files -z -- "$$p" | xargs -0 cat 2>/dev/null | wc -l); \
	  if [ -n "$(LOC_BASE)" ]; then \
	    d=$$(git diff --numstat $(LOC_BASE) -- "$$p" | awk '{n += $$1 - $$2} END {printf "%+d", n}'); \
	    printf '%-10s %7d %7s\n' "$$p" "$$n" "$$d"; \
	  else printf '%-10s %7d\n' "$$p" "$$n"; fi; \
	done

clean:
	$(DUNE) clean
	rm -f BENCH_*.json
