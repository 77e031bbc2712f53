.PHONY: all build test bench table1 table2 net fleet ablations micro bench-json perf-check \
        bench-macro perf-check-macro bench-throughput check lint analyze chaos \
        examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force --no-buffer

bench:
	dune exec bench/main.exe

table1:
	dune exec bench/main.exe table1

table2:
	dune exec bench/main.exe table2

ablations:
	dune exec bench/main.exe ablations

# Table 3 (DESIGN.md section 16): learned congestion control on the
# net.cc decision point; replays the experiment at a second pool width
# and exits non-zero on digest divergence or a failed shape check.
net:
	dune exec bin/rkdctl.exe -- net

# Fleet control plane (DESIGN.md section 17): drift detection, staged
# canary rollout with automatic rollback; --soak replays the identical
# soak at pool widths 1/4/8 and exits non-zero on digest divergence, a
# breaker left open, or install thrash.
fleet:
	dune exec bin/rkdctl.exe -- fleet --soak

micro:
	dune exec bench/main.exe micro

bench-json:
	dune exec bench/main.exe json BENCH_micro.json

perf-check:
	dune exec bench/main.exe perf-check bench/BASELINE_micro.json

# Macro harness: times table1/table2/ablations at domains=1 vs the pool
# width (RKD_DOMAINS or core count) and writes BENCH_macro.json.
bench-macro:
	dune exec bench/main.exe macro BENCH_macro.json

# Fails if the parallel experiment engine is slower than sequential
# (tolerance scales down on single-core machines; see bench/main.ml).
perf-check-macro:
	dune exec bench/main.exe perf-check-macro

# Serving-layer throughput (DESIGN.md section 14): events/sec + p99
# queue latency at 1/4/8 shard domains, gated on cross-width digest
# equality.  Writes BENCH_throughput.json.
bench-throughput:
	dune exec bench/main.exe -- throughput

# Fast static-analysis smoke (~2s): a short differential-fuzz run of the
# abstract interpreter — interpreter, JIT and batch engines vs an
# always-guarded reference.  The full 5000-program run lives in the test
# suite.
lint:
	dune exec bin/rkdctl.exe -- absint-fuzz --trials 1500

# Static analysis gate (DESIGN.md section 15), three legs:
#   1. every program the repo ships lints clean (--strict exits nonzero
#      on any finding — a false positive fails the build);
#   2. every seeded-defect mutant in the corpus is caught by its
#      expected rule (--mutations validates the lint itself);
#   3. the serving-plane protocols model-check exhaustively at small
#      scope, and the deliberately broken variants still produce
#      counterexample traces (--self-test validates the models).
analyze:
	dune exec bin/rkdctl.exe -- analyze --strict
	dune exec bin/rkdctl.exe -- analyze --mutations
	dune exec bin/rkdctl.exe -- mc
	dune exec bin/rkdctl.exe -- mc --self-test

# Chaos soak (DESIGN.md section 12): 1000 seeded fault scenarios at pool
# widths 1 and 4 — zero uncaught exceptions, every breaker re-closed
# (rkdctl exits non-zero otherwise), and bit-identical digests across
# the two widths.  Then the serving fleet (DESIGN.md section 14) at 2
# and 4 shards under a 1% everything-fault plan: --soak replays the
# trace twice and exits non-zero unless decision digests are
# bit-identical and every tripped breaker re-closed.  Then the net
# experiment (DESIGN.md section 16) under the same 1% plan: the learned
# controller must degrade to its stock-Cubic fallback with digests
# bit-identical across pool widths.  Finally the fleet control plane
# (DESIGN.md section 17) under the same plan, staggered and as a
# simultaneous drift storm: staged rollouts with automatic rollback must
# stay bit-identical across widths, re-close every breaker and keep the
# per-episode install bound.
chaos:
	@out1=$$(dune exec bin/rkdctl.exe -- chaos -n 1000 -d 1) || { echo "$$out1"; exit 1; }; \
	echo "$$out1"; \
	out4=$$(dune exec bin/rkdctl.exe -- chaos -n 1000 -d 4) || { echo "$$out4"; exit 1; }; \
	echo "$$out4"; \
	d1=$$(echo "$$out1" | grep -o 'digest [0-9a-f]*'); \
	d4=$$(echo "$$out4" | grep -o 'digest [0-9a-f]*'); \
	test -n "$$d1" && test "$$d1" = "$$d4" \
	  || { echo "chaos: digest mismatch across pool widths ($$d1 vs $$d4)"; exit 1; }
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- serve --soak --shards 2
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- serve --soak --shards 4
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- net
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- fleet --soak
	RKD_FAULTS=all:0.01 dune exec bin/rkdctl.exe -- fleet --soak --storm

# The umbrella CI gate: warning-clean build, absint fuzz smoke, static
# analysis (lint corpus + protocol model checking), full test suite,
# chaos soak, micro perf regression check.
check:
	dune build @all
	$(MAKE) lint
	$(MAKE) analyze
	dune runtest --force --no-buffer
	$(MAKE) chaos
	$(MAKE) perf-check

examples:
	dune exec examples/quickstart.exe
	dune exec examples/prefetch_study.exe
	dune exec examples/sched_study.exe
	dune exec examples/lean_monitoring.exe
	dune exec examples/adaptive_shift.exe
	dune exec examples/cascade.exe
	dune exec examples/cross_app.exe

clean:
	dune clean
