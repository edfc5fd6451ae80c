# Tier-1 verification recipe. `make verify` is what CI (and the roadmap's
# acceptance gate) runs: build, full test suite, vet, a race-detector
# pass over the concurrency-heavy packages (client batching layer and
# replica protocol), and a short seeded chaos soak under -race checked by
# the linearizability history oracle.

GO ?= go

.PHONY: verify build test vet race loc flake benchmark-check shape-check bench bench-smoke bench-write-smoke chaos-smoke chaos-soak docs-check examples-smoke obs-smoke tiering-smoke codec-smoke qos-smoke seq-smoke reconfig-smoke

verify: build test vet race benchmark-check shape-check chaos-smoke bench-write-smoke examples-smoke obs-smoke tiering-smoke codec-smoke qos-smoke seq-smoke reconfig-smoke docs-check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/core/... ./internal/replica/... ./internal/transport/... ./internal/storage/... ./internal/ctrlplane/... ./internal/qos/... ./internal/pmem/... ./internal/topology/... ./internal/combine/... ./internal/obs/...

# The line counts every deletion PR states before and after in
# CHANGES.md: non-test and test Go lines of the program (the benchmark
# module and its build directory are not the program), and the non-test
# lines of the packages (and the deployed binaries, cmd) the design diet is
# judged on.
loc:
	@printf 'non-test Go lines: '; find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@printf 'test Go lines:     '; find . -name '*_test.go' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l
	@for pkg in internal/bench internal/combine internal/storage internal/ssd internal/pmem internal/seq internal/proto internal/transport internal/replica internal/core internal/ctrlplane cmd; do \
		printf '%s non-test Go lines: ' $$pkg; find $$pkg -name '*.go' -not -name '*_test.go' | xargs cat | wc -l; \
	done

# Flake rate of one test: make flake PKG=./internal/seq/ RUN=TestEpochBumpDuringFlood N=200
# runs it N times and prints failures/N (add GOFLAGS=-race for the race
# detector).
N ?= 50
flake:
	@$(GO) test -count=$(N) -run '$(RUN)' $(PKG) -v 2>&1 | awk '/^--- FAIL/ {f++} /^--- (FAIL|PASS)/ {n++} END {printf "%d/%d failed\n", f, n}'

# The wall-clock benchmark is its own module (benchmark/go.mod), so tier-1
# `go test ./...` does not reach it: vet and test it here against the
# program as it is now, so a renamed Stats() field or constructor breaks
# `make verify` instead of the next benchmark run.
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The wall-clock shape tests — Table 1's compute/storage split of the
# video and gzip profiles, and ablate-reconfig's throughput dip across a
# live split + drain: built only with -tags shape, so full-parallel
# `go test ./...` load cannot distort them; run here alone.
shape-check:
	$(GO) test -tags shape -count=1 -run 'TestProfileVideoShape|TestProfileGzipShape' ./internal/workload/
	timeout 60 $(GO) test -tags shape -count=1 -run 'TestAblateReconfigShape' ./internal/bench/

# Short seeded chaos soak (drop/dup/reorder/jitter + replica crashes +
# leader kills) under -race; a failure prints the seed and the nemesis
# schedule to replay it (FLEXLOG_CHAOS_SEED=<seed>). Beside it, the two
# scripted schedules that once gave one token two SNs across a leader kill
# (ROADMAP item 1), ten times each.
chaos-smoke:
	$(GO) test -race -short -count=1 -run 'TestChaosSoakShort|TestScheduleDeterminism' ./internal/chaos/
	$(GO) test -race -count=10 -run 'TestLostOrderRespThenLeaderKill|TestSplitFrontiersThenLeafLeaderKill' ./internal/core/

# Full ≥30s acceptance soak (see EXPERIMENTS.md "chaos soak").
chaos-soak:
	FLEXLOG_CHAOS_SOAK=1 $(GO) test -race -count=1 -timeout 300s -run 'TestChaosSoak$$' -v ./internal/chaos/

bench:
	$(GO) run ./cmd/flexlog-bench -quick all

# Fast profiling loop for the read path: one quick ablation run with CPU
# and heap profiles written under .bench_build/ (git-ignored), not the
# repository root.
bench-smoke:
	@mkdir -p .bench_build
	$(GO) run ./cmd/flexlog-bench -quick -cpuprofile .bench_build/cpu.pprof -memprofile .bench_build/mem.pprof ablate-readpath

# Write-path smoke: the quick ablation must finish (well) inside 30s and
# report zero drops; part of `make verify` so the parallel write path
# can't silently rot. The block profile (lane/lock contention) goes under
# .bench_build/ with the other build outputs.
bench-write-smoke:
	@mkdir -p .bench_build
	timeout 30 $(GO) run ./cmd/flexlog-bench -quick -blockprofile .bench_build/block.pprof ablate-writepath

# Example smoke: build every examples/* program and run each to its end
# under a timeout. An example checks its own story (multitenant exits 1 if
# admission control never engaged), and no test runs an example, so a
# non-zero exit fails the target and prints that example's output. The
# binaries and logs go under .bench_build/.
examples-smoke:
	@mkdir -p .bench_build/examples
	$(GO) build -o .bench_build/examples/ ./examples/...
	@for dir in examples/*/; do \
		ex=$$(basename $$dir); \
		if timeout 20 .bench_build/examples/$$ex > .bench_build/examples/$$ex.log 2>&1; then \
			echo "examples-smoke: $$ex ok"; \
		else \
			echo "examples-smoke: $$ex FAILED"; cat .bench_build/examples/$$ex.log; exit 1; \
		fi; \
	done

# Tiered-storage lifecycle smoke: the checkpoint-bounded-recovery unit
# test (replay stays flat while the log grows under a PM budget), the
# append path's allocation guard (PutBatch+Commit, and PutEntry+Commit of
# a decoded batch, allocate per batch, not per record; the decoded batch
# allocates no entry-sized buffer; a warm cache fill allocates nothing;
# DESIGN.md §8), the run
# index against its per-record reference model, the cache's DRAM bound,
# the PM arena on huge pages and the advice undone once it is freed
# (skipped where THP is off), the crash points
# of the one spill path (lifecycle and on-demand), the checkpoint write,
# the freed slot, a fused group-commit window and segment rolls waiting
# for an in-flight eviction, five times each under -race, short fuzzes of
# the checkpoint decoder, the run index and the batch framing (over the
# entries the TCP frame decoders build), plus the quick ablate-tiering
# curve (eviction under budget, cold-tier reads, flat recovery vs the
# lifecycle-less baseline). See DESIGN.md §11.
tiering-smoke:
	$(GO) test -count=1 -run 'TestCheckpointBoundsRecoveryReplay|TestBackgroundEvictionUnderBudget|TestAppendPathAllocsFlat|TestRunIndexMatchesModel|TestRunIndexSplitRuns|TestCacheBytesBoundsDRAM' ./internal/storage/
	$(GO) test -count=1 -run 'TestArenaAdvisedHuge|TestArenaAdviceUndoneWhenDropped' -v ./internal/pmem/
	$(GO) test -race -count=5 -run 'TestCrashMidEviction|TestCrashMidOnDemandSpill|TestCrashMidCheckpoint|TestFreedSlotIsNotReplayed|TestCrashInFusedWindowLeavesNoEntry|TestRollWaitsForInFlightEviction|TestRollWaitRechecksToken' ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime=10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzRunIndex$$' -fuzztime=10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzBatchSpans$$' -fuzztime=10s ./internal/storage/
	timeout 60 $(GO) test -count=1 -run 'TestTieringShape' ./internal/bench/

# Observability overhead smoke: the ablation runs the same append workload
# with the registry + tracing off and on, and fails if modeled throughput
# drops more than 5% (see internal/bench/obs.go and DESIGN.md §9).
obs-smoke:
	timeout 60 $(GO) run ./cmd/flexlog-bench -quick ablate-obs

# Wire-codec smoke (DESIGN.md §12): the 0 allocs/op ceiling on the hot
# frame types, the golden-bytes pin of the wire format, and 10 s of
# fuzzing for each of the codec's three fuzz targets: the first two check
# the TCP read loop's FrameDecoder against DecodeFrame on every input,
# the third runs one FrameDecoder over a stream of frames.
codec-smoke:
	$(GO) test -count=1 -run 'TestCodecZeroAllocHotPath|TestCodecGolden' ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime=10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzCodecDecodeNoPanic$$' -fuzztime=10s ./internal/proto/
	$(GO) test -run '^$$' -fuzz '^FuzzFrameDecoderReuse$$' -fuzztime=10s ./internal/proto/

# Multi-tenant QoS smoke (DESIGN.md §13): the quick ablate-qos run must
# show noisy-neighbor isolation (victim keeps >= ~80% of solo throughput
# while the aggressor gets admission-throttled), zero sheds at nominal
# load, and a hedged-read P99 win under a jitter-degraded replica; plus
# the lane backpressure and retry-after unit tests under -race.
qos-smoke:
	$(GO) test -race -count=1 -run 'TestLaneBackpressure|TestLaneTenantFIFO|TestBackoffRetryAfter' ./internal/transport/ ./internal/core/
	timeout 120 $(GO) test -count=1 -run 'TestAblateQoSShape' ./internal/bench/

# Lock-free sequencer smoke (DESIGN.md §14): the -race ordering stress
# tests (concurrent colors with duplicate retries; epoch bumps forced into
# a request flood) plus the quick ablate-seq curve (order lanes must hold
# >= 3x modeled ordering throughput at 64 concurrent colors with the
# single-driver round-trip inside 10%).
seq-smoke:
	$(GO) test -race -count=1 -run 'TestConcurrentOrderingStress|TestEpochBumpDuringFlood' ./internal/seq/
	timeout 120 $(GO) test -count=1 -run 'TestAblateSeqShape' ./internal/bench/

# Reconfiguration smoke (DESIGN.md §15): under -race, the stress test
# (appends flooding two colors through a concurrent shard split + replica
# drain + replica add, gated by the histcheck oracle), the controller over
# the wire (lossy control links, targets that never answer, the static
# deployment flexlog-cli reconfig runs on) and the replica's control-op
# handler. The quick ablate-reconfig curve (bounded dip during the window,
# post-split throughput >= 95% of pre-split) runs in shape-check.
reconfig-smoke:
	$(GO) test -race -count=1 -run 'TestReconfigUnderLoad|TestPlans|TestStaticDeployment|TestAddReplicaRollsBack|TestCtrlReconfigHandler' ./internal/ctrlplane/ ./internal/replica/

# Godoc coverage gate: every exported symbol in internal/obs (and the
# control plane's operator-facing API) must carry a doc comment
# (OPERATIONS.md's coverage test guards the metric names; this guards the
# API docs). -flags verifies every flexlog-server / flexlog-cli flag is
# documented in README.md or OPERATIONS.md. -deadcode type-checks the
# module and fails on an exported name under internal/ that no non-test
# code of internal/, cmd/ or examples/ uses (a config field counts only
# where it is set): an option nothing turns is deleted when it appears,
# not by the next diet PR. It lists the names only benchmark/ keeps alive
# without failing, and keeps the rest on cmd/docs-check/allowlist.go, one
# reason each. -metrics verifies every flexlog_* metric family named in
# the source (string literals and obs struct tags) is documented in
# OPERATIONS.md.
docs-check:
	$(GO) run ./cmd/docs-check internal/obs internal/ctrlplane
	$(GO) run ./cmd/docs-check -flags cmd/flexlog-server cmd/flexlog-cli
	$(GO) run ./cmd/docs-check -metrics internal cmd
	$(GO) run ./cmd/docs-check -deadcode
