GO ?= go

.PHONY: check fmtcheck vet ispyvet vetsmoke vet-waivers build perfbuild test race fuzz faultsmoke chaossmoke scenariosmoke benchsmoke benchall bench

# The full gate: what CI (and every PR) must pass.
check: fmtcheck vet ispyvet vetsmoke build perfbuild race fuzz faultsmoke chaossmoke scenariosmoke benchsmoke

# gofmt enforcement: fails listing any file that needs formatting.
fmtcheck:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l flagged:"; echo "$$unformatted"; exit 1; fi
	@echo "fmtcheck: ok"

vet:
	$(GO) vet ./...

# The repo's own determinism & invariant analyzer (see DESIGN.md §10).
# Strict mode: stale waivers fail the gate. The -json invocation is a
# smoke test for the machine-readable output tooling depends on.
ispyvet:
	$(GO) run ./cmd/ispy-vet -strict ./...
	@$(GO) run ./cmd/ispy-vet -json ./... > /dev/null 2>&1 || \
		{ echo "ispyvet: -json smoke failed"; exit 1; }
	@echo "ispyvet: -json smoke ok"

# End-to-end proof that the cache-soundness gate bites: graft the two
# canonical regressions (a Config field the kernel reads but the key never
# folds; a time.Now() folded into an analyze response) onto pristine module
# copies and require `ispy-vet -strict` to fail each with the right pass.
vetsmoke:
	$(GO) test -run 'TestInjectedRegressions/(keysound|purity)' ./internal/vetting

# List every //ispy: waiver in effect, for periodic review.
vet-waivers:
	$(GO) run ./cmd/ispy-vet -waivers ./...

build:
	$(GO) build ./...

# The end-to-end benchmark (_perfbench, its own module) calls internal
# packages directly; build it so a signature change it depends on fails
# the gate instead of the next benchmark run.
perfbuild:
	cd _perfbench && $(GO) build -o /dev/null .

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short continuous-fuzzing passes over the artifact decoders and the
# context-discovery fast path (differential against its frozen reference);
# regressions land in each package's testdata/fuzz and replay as ordinary
# tests forever after.
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzDecode -fuzztime=5s ./internal/traceio
	$(GO) test -run=NONE -fuzz='^FuzzDiscoverContext$$' -fuzztime=5s ./internal/core

# End-to-end fault-injection smoke: an injected panic must degrade the run
# (exit 1 with a report), not crash it.
faultsmoke:
	@$(GO) run ./cmd/ispy -apps tomcat -instrs 120000 \
		-faults 'compute/base/*=panic' run fig1 >/dev/null 2>&1; \
	rc=$$?; if [ $$rc -ne 1 ]; then \
		echo "faultsmoke: exit code $$rc, want 1"; exit 1; fi
	@echo "faultsmoke: ok (exit 1 with contained failure)"

# Server chaos smoke: the ispyd soak must hold every graceful-degradation
# invariant (canonical or structured responses, no partial cache writes,
# clean drain) under injected corruption, torn writes, and panics (exit 0;
# see DESIGN.md §12).
chaossmoke:
	@$(GO) run ./cmd/ispyd soak -apps wordpress -workers 2 -requests 3 \
		-instrs 60000 -fault-seed 20260807 >/dev/null 2>&1 || \
		{ echo "chaossmoke: soak reported an invariant violation"; exit 1; }
	@echo "chaossmoke: ok (all graceful-degradation invariants held)"

# Multi-tenant scenario smoke: a bursty two-tenant scenario must run clean
# through the batch CLI and through the ispyd soak's scenario target (the
# spec grammar is docs/WORKLOADS.md; determinism is pinned by golden tests).
SCENARIO := name=smoke;seed=11;requests=160;arrival=gamma:0.7;day=0.6,1.4;zipf=0.8;tenants=wordpress:slo=interactive,tomcat:slo=batch
scenariosmoke:
	@$(GO) run ./cmd/ispy -instrs 120000 -scenario '$(SCENARIO)' >/dev/null 2>&1 || \
		{ echo "scenariosmoke: ispy -scenario failed"; exit 1; }
	@$(GO) run ./cmd/ispyd soak -apps wordpress -workers 2 -requests 2 \
		-instrs 60000 -fault-seed 20260807 -scenario '$(SCENARIO)' >/dev/null 2>&1 || \
		{ echo "scenariosmoke: ispyd soak with -scenario failed"; exit 1; }
	@echo "scenariosmoke: ok (CLI scenario + soak scenario target both clean)"

# Benchmark smoke: scripts/bench.sh must produce parseable JSON, and its
# built-in regression gate must pass against the newest committed
# BENCH_PR*.json (>10% wordpress-throughput loss fails; bench.sh -no-gate
# is the escape hatch for noisy machines). The test skips itself unless the
# env var is set because it spawns a nested `go test -bench`.
benchsmoke:
	ISPY_BENCH_SMOKE=1 $(GO) test -run TestBenchScriptEmitsJSON .

# The full benchmark suite (per-figure regeneration + ablations).
benchall:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# The reproducible perf baseline: headline benchmarks → BENCH_PR$(PR).json
# at the repo root, gated against the newest committed baseline (see
# docs/PERFORMANCE.md). PR is required (`make bench PR=N`), so no run
# clobbers an earlier PR's committed baseline.
bench:
	@if [ -z "$(PR)" ]; then echo "usage: make bench PR=N (N names the new BENCH_PR<N>.json)" >&2; exit 2; fi
	./scripts/bench.sh -pr $(PR)
