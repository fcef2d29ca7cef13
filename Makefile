# Nitro reproduction — build/test/bench entry points.
#
# `make ci` is what .github/workflows/ci.yml runs: vet, build, and the full
# test suite under the race detector (the parallel tuning pipeline is
# required to be race-clean and bit-identical at every -parallelism setting).

GO ?= go

.PHONY: all build vet test race stress fuzz-smoke bench bench-parallel bench-call bench-trace bench-dispatch dispatch-agreement online-replay metrics-smoke server-smoke chaos-smoke trace-smoke perfbench-check lint ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection stress: the robustness suites (panic isolation, deadlines,
# quarantine breaker, seeded fault harness) under the race detector, with a
# hard wall-clock bound so a hung fallback path fails fast instead of
# wedging CI. The second run repeats the memo tests (hot-swap invalidation,
# the canary bypass, the quarantine re-check on a hit, admission; the memo
# sits behind the compiled walk, so they install models without a program)
# and the SVM grid search's parallel fit ten times, the places where a race
# or a timing-dependent assertion once hid behind a single passing run.
stress:
	$(GO) test -race -timeout 120s -run 'Fault|Quarantine|Panic|Timeout|Cancel|Veto' ./internal/core/ ./internal/autotuner/ ./cmd/nitro-tune/
	$(GO) test -race -timeout 120s -count=10 -run 'Memo|TestGridSearchParallelDeterministic' ./internal/core/ ./internal/ml/

# Native-fuzzer smoke: short bounded runs of the model-deserializer fuzz
# target (arbitrary bytes must never panic and must round-trip to a fixed
# point), the compiled-program fuzz target (Validate never panics, and an
# accepted program walks to a label from its classes on any input), the
# sort-variant fuzz target (every variant sorts like sort.Float64s, Cost
# equals Run's time), the journal fuzz target
# (recovery from arbitrary journal.wal bytes keeps the intact prefix, and
# reopening and appending read back what was kept) and the registry's
# request decoders: observation frames (an accepted frame re-encodes to
# the same bytes), observation JSON (every accepted batch decodes equal as
# a frame) and function specs (an accepted spec round-trips). Every journal
# execution fsyncs, so its input minimization is capped at 500 executions;
# the default 60 s cap would take the whole run. The accumulated corpus
# keeps regressions reproducible.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzUnmarshalModel -fuzztime 10s ./internal/ml/
	$(GO) test -run xxx -fuzz FuzzCompiledProgram -fuzztime 10s ./internal/ml/
	$(GO) test -run xxx -fuzz FuzzSortVariants -fuzztime 10s ./internal/sortbench/
	$(GO) test -run xxx -fuzz FuzzJournal -fuzztime 10s -fuzzminimizetime 500x ./internal/server/
	$(GO) test -run xxx -fuzz FuzzSampleFrame -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzObservationsJSON -fuzztime 10s ./internal/server/
	$(GO) test -run xxx -fuzz FuzzFunctionSpec -fuzztime 10s ./internal/server/

# Full benchmark sweep (figures + ablations + ML kernels + the
# deployment-runtime parallel-call benches in internal/core).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Just the parallel-pipeline benchmarks: grid search (uncached vs cached vs
# parallel) and corpus labelling (serial vs worker pool).
bench-parallel:
	$(GO) test -run xxx -bench 'GridSearch|Fig4Setup' ./internal/ml/ .

# Deployment-runtime benchmarks: the lock-free selection hot path under
# b.RunParallel (Call / CallFixed futures / CallConcurrent), at one
# and several scheduler threads, plus the adaptation-overhead benches
# (BenchmarkCallAdaptive{Off,On,OnExploring}) that bound what an attached
# online engine costs per call. Run on a multi-core host for scaling
# numbers; at 1 core this checks that the concurrency machinery adds no
# serial overhead.
bench-call:
	$(GO) test -run xxx -bench 'BenchmarkCall' -cpu 1,2,4 ./internal/core/

# Online-adaptation smoke: replay a seeded drifting input stream through
# cmd/nitro-tune's adaptation engine twice with the SVM and assert the
# printed timeline (drift detected -> retrain -> hot-swap -> recovered) is
# reproducible byte for byte, then check the expected events actually
# appear. This is the closed loop end to end: offline tune, synthetic
# mid-stream drift, online retrain, model v2 swap.
online-replay:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	printf '{"function":"sort","benchmark":"Sort","classifier":"svm","scale":0.1,"seed":3,"train_count":12,"test_count":12,"online_replay":600}\n' > "$$tmp/online.json" && \
	$(GO) run ./cmd/nitro-tune -spec "$$tmp/online.json" > "$$tmp/run1.txt" && \
	$(GO) run ./cmd/nitro-tune -spec "$$tmp/online.json" > "$$tmp/run2.txt" || exit 1; \
	if ! cmp -s "$$tmp/run1.txt" "$$tmp/run2.txt"; then \
		echo "FAIL: svm online replay timeline is not reproducible:"; \
		diff "$$tmp/run1.txt" "$$tmp/run2.txt"; exit 1; \
	fi; \
	for ev in '] drift:' '] retrain (' '] swap (v1 -> v2' '] recovered:'; do \
		grep -F "$$ev" "$$tmp/run1.txt" >/dev/null || { \
			echo "FAIL: svm timeline missing \"$$ev\" event:"; cat "$$tmp/run1.txt"; exit 1; }; \
	done; \
	echo "svm online replay reproducible: $$(grep -c '\[call ' "$$tmp/run1.txt") timeline events, drift -> retrain -> swap -> recovered"

# Per-tier dispatch benchmarks: a repeat caller on the compiled tier, a
# novel input the compiled walk decides, the exact pass and no model, plus
# the features a one-split program evaluates per call out of 32.
# Run on a quiet machine for stable ns/op numbers; the end-to-end and
# per-layer dispatch numbers come from perfbench (BENCHMARK.json).
bench-dispatch:
	$(GO) test -run xxx -bench 'BenchmarkCallCompiledRepeat|BenchmarkCallNovel|BenchmarkCallExact|BenchmarkCallNoModel|BenchmarkCallManyFeatures' -benchmem ./internal/core/

# CI agreement gate: every benchmark's tuned model must distill into a
# compiled artifact that agrees with the exact classifier on >= 99% of the
# training corpus (and the serve-time tiers must pick identical variants,
# per call and through CallConcurrent — the equivalence tests in
# internal/core and internal/ml).
dispatch-agreement:
	$(GO) test -run 'TestCompiledAgreementCorpora' -v ./internal/experiments/
	$(GO) test -run 'TestServedChoiceMatchesExactOnCorpus|TestCompiledTierServesIdenticalChoices|TestCallConcurrentBatchedMatchesSerialTiers' ./internal/ml/ ./internal/core/

# Observability benchmarks: the dispatch hot path with tracing disabled /
# sampled / always-on and with latency histograms enabled, against the
# untraced BenchmarkCallParallel baseline. "Tracing off" must sit within
# noise of the baseline (ISSUE-5 acceptance criterion).
bench-trace:
	$(GO) test -run xxx -bench 'BenchmarkCallParallel$$|BenchmarkCallTraced|BenchmarkCallHistograms' -cpu 1,2,4 ./internal/core/

# Telemetry-endpoint smoke: run a tuned throughput replay with tracing,
# phase timings and a live metrics endpoint on an ephemeral port, then
# assert (a) the endpoint came up, (b) the shutdown self-scrape validated
# the Prometheus exposition (format + nitro_ name lint — the CLI exits
# non-zero if validation fails), (c) decision traces were recorded, and
# (d) the phase report names the pipeline stages. The live-HTTP scrape
# itself is covered by Go tests (TestServeScrape and friends), which run
# second for an end-to-end check over a real listener.
metrics-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	printf '%s\n' '{"function":"sort","benchmark":"Sort","classifier":"svm","scale":0.1,"seed":3,"train_count":12,"test_count":12,"throughput":200,"trace":"sampled","phase_timings":true,"metrics_addr":"127.0.0.1:0"}' > "$$tmp/metrics.json" && \
	$(GO) run ./cmd/nitro-tune -spec "$$tmp/metrics.json" > "$$tmp/run.txt" && \
	for want in 'metrics endpoint: http://127.0.0.1:' 'metrics exposition valid: ' 'decision traces recorded: ' 'phase timings: '; do \
		grep -F "$$want" "$$tmp/run.txt" >/dev/null || { \
			echo "FAIL: metrics smoke output missing \"$$want\":"; cat "$$tmp/run.txt"; exit 1; }; \
	done && \
	echo "metrics smoke ok: $$(grep -F 'metrics exposition valid: ' "$$tmp/run.txt")" && \
	$(GO) test -run 'TestServeScrape|TestPublicAPIMetricsEndpoint|TestRunSpecMetricsEndpointLiveScrape' ./internal/obs/ ./cmd/nitro-tune/ .

# Registry-daemon smoke: nitro-server's built-in self-test drives an
# ephemeral daemon end to end over real HTTP — register a function, push
# an observation corpus (a binary frame from the client and a plain JSON
# batch, both of which the registry must count), queue a tuning job,
# pull the versioned artifact
# (verifying the content-addressed ETag and the 304 revalidation path),
# validate the /metrics exposition, and shut down gracefully; the binary
# exits non-zero on any failure. The Go tests then cover the full API
# surface (auth/tenant isolation, preconditions, quotas, -race publish
# stress) and the two-client canary-rollout e2e.
server-smoke:
	$(GO) run ./cmd/nitro-server -smoke
	$(GO) test -race ./internal/server/...

# Crash-and-chaos smoke: nitro-server's seeded kill-restart-resume
# lifecycle — stage a canary, crash with no drain, restart over the same
# data dir, assert the journal resumed the canary at its recorded counts,
# then promote it through a fault-injecting transport (drops, 5xx bursts,
# mid-body resets) with zero dropped client calls. The binary runs the
# whole lifecycle TWICE and diffs the transcripts byte for byte, so any
# nondeterminism in the recovery path fails the target. The Go test then
# re-runs the richer kill-restart e2e (partition/heal, breaker reopen)
# under -race.
chaos-smoke:
	$(GO) run ./cmd/nitro-server -smoke-chaos
	$(GO) test -race -run 'TestChaosKillRestartResumePromote|TestJournal' ./internal/server/...

# Correlated-tracing smoke: nitro-server's trace self-test drives an
# ephemeral daemon through a full canary lifecycle under ONE injected
# X-Nitro-Trace-Id and asserts the id is recoverable from every
# observability surface — the structured slog stream (register -> push ->
# canary start -> report -> promote, each stamped with the id), the
# journal WAL bytes on disk, the /debug/flight ring (scraped twice and
# byte-compared: wall-clock-free and side-effect-free), and the settled
# deployment's last_decision_trace. The Go tests then re-run the richer
# crash-correlation e2e (kill mid-canary, restart, the resumed episode and
# its verdict still carry the id) and the double-run determinism suite
# under -race.
trace-smoke:
	$(GO) run ./cmd/nitro-server -smoke-trace
	$(GO) test -race -run 'TestTraceSurvivesKillRestart|TestObservabilityDoubleRunDeterminism|TestTraceHeaderEchoAndSanitize|TestFlightEndpoint|TestPullVersionHeaderOn200And304' ./internal/server/...

# Benchmark build check: perfbench/ is its own module (replace nitro => ../),
# so `go vet ./...` and `go test ./...` at the root never compile it. Vet and
# test it against this tree, offline, so a change that deletes a name the
# benchmark uses fails here instead of in the next benchmark run.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOPROXY=off $(GO) vet ./... && GOFLAGS=-mod=mod GOPROXY=off $(GO) test ./...

# Static analysis beyond vet: every tracked Go file must be gofmt-clean
# (git ls-files keeps build output such as .bench_build/ out of the scan),
# then staticcheck when it is installed (CI installs it); locally that is
# skipped with a note rather than failing the build, because the toolchain
# image is offline.
lint: vet
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

ci: lint build race

clean:
	$(GO) clean ./...
