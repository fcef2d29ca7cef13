# Nitro reproduction — build/test/bench entry points.
#
# `make ci` is what .github/workflows/ci.yml runs: vet, build, and the full
# test suite under the race detector (the parallel tuning pipeline is
# required to be race-clean and bit-identical at every -parallelism setting).

GO ?= go

.PHONY: all build vet test race stress fuzz-smoke bench bench-parallel bench-call bench-trace bench-dispatch dispatch-agreement online-replay metrics-smoke server-smoke chaos-smoke trace-smoke bench-serving bench-ensemble bench-obs lint ci clean

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
# wedging CI.
stress:
	$(GO) test -race -timeout 120s -run 'Fault|Quarantine|Panic|Timeout|Cancel|Veto' ./internal/core/ ./internal/autotuner/ ./cmd/nitro-tune/

# Native-fuzzer smoke: a short bounded run of the model-deserializer fuzz
# target (arbitrary bytes must never panic and must round-trip to a fixed
# point). The accumulated corpus keeps regressions reproducible.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzUnmarshalModel -fuzztime 10s ./internal/ml/

# Full benchmark sweep (figures + ablations + ML kernels + the
# deployment-runtime parallel-call benches in internal/core).
bench:
	$(GO) test -run xxx -bench . -benchmem ./...

# Just the parallel-pipeline benchmarks: grid search (uncached vs cached vs
# parallel) and corpus labelling (serial vs worker pool).
bench-parallel:
	$(GO) test -run xxx -bench 'GridSearch|Fig4Setup' ./internal/ml/ .

# Deployment-runtime benchmarks: the lock-free selection hot path under
# b.RunParallel (Call / CallFixed futures / batched CallConcurrent), at one
# and several scheduler threads, plus the adaptation-overhead benches
# (BenchmarkCallAdaptive{Off,On,OnExploring}) that bound what an attached
# online engine costs per call. Run on a multi-core host for scaling
# numbers; at 1 core this checks that the concurrency machinery adds no
# serial overhead.
bench-call:
	$(GO) test -run xxx -bench 'BenchmarkCall' -cpu 1,2,4 ./internal/core/

# Online-adaptation smoke: replay a seeded drifting input stream through
# cmd/nitro-tune's adaptation engine twice per classifier (the SVM and the
# ensemble committee) and assert the printed timeline (drift detected ->
# retrain -> hot-swap -> recovered) is reproducible byte for byte, then
# check the expected events actually appear. This is the closed loop end to
# end: offline tune, synthetic mid-stream drift, online retrain, model v2
# swap. The ensemble run also catches nondeterminism in the committee vote.
online-replay:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for clf in svm ensemble; do \
		printf '{"function":"sort","benchmark":"Sort","classifier":"%s","scale":0.1,"seed":3,"train_count":12,"test_count":12,"online_replay":600}\n' "$$clf" > "$$tmp/online.json" && \
		$(GO) run ./cmd/nitro-tune -spec "$$tmp/online.json" > "$$tmp/run1.txt" && \
		$(GO) run ./cmd/nitro-tune -spec "$$tmp/online.json" > "$$tmp/run2.txt" || exit 1; \
		if ! cmp -s "$$tmp/run1.txt" "$$tmp/run2.txt"; then \
			echo "FAIL: $$clf online replay timeline is not reproducible:"; \
			diff "$$tmp/run1.txt" "$$tmp/run2.txt"; exit 1; \
		fi; \
		for ev in '] drift:' '] retrain (' '] swap (v1 -> v2' '] recovered:'; do \
			grep -F "$$ev" "$$tmp/run1.txt" >/dev/null || { \
				echo "FAIL: $$clf timeline missing \"$$ev\" event:"; cat "$$tmp/run1.txt"; exit 1; }; \
		done; \
		echo "$$clf online replay reproducible: $$(grep -c '\[call ' "$$tmp/run1.txt") timeline events, drift -> retrain -> swap -> recovered"; \
	done

# Dispatch-overhead study: distill all five benchmark models, time the
# three dispatch tiers (memoized / compiled / exact) through a live replay
# CodeVariant, and emit the machine-readable BENCH_dispatch.json artifact
# alongside the per-tier Go benchmarks. Run on a quiet machine for stable
# ns/op numbers.
bench-dispatch:
	$(GO) run ./cmd/nitro-experiments -run dispatch -scale 0.2 -train 24 -test 36 -nogrid -dispatch-json BENCH_dispatch.json
	$(GO) test -run xxx -bench 'BenchmarkCallMemoHit|BenchmarkCallCompiled|BenchmarkCallExact|BenchmarkCallNoModel' -benchmem ./internal/core/

# CI agreement gate: every benchmark's tuned model must distill into a
# compiled artifact that agrees with the exact classifier on >= 99% of the
# training corpus (and the serve-time tiers must pick identical variants —
# the equivalence tests in internal/core and internal/ml).
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
# an observation corpus, queue a tuning job, pull the versioned artifact
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

# Serving-latency bench: drive a live daemon over HTTP and record
# pull/push/observation latency percentiles plus shed behaviour under
# overload into BENCH_serving.json.
bench-serving:
	$(GO) run ./cmd/nitro-experiments -run serving -serving-json BENCH_serving.json

# Ensemble study: single-SVM vs four-member-committee selection quality,
# training cost and per-prediction overhead across the benchmark corpora,
# into BENCH_ensemble.json. Run on a quiet machine for stable ns/op numbers.
bench-ensemble:
	$(GO) run ./cmd/nitro-experiments -run ensemble -scale 0.2 -train 24 -test 36 -nogrid -ensemble-json BENCH_ensemble.json

# Observability-overhead bench: run the per-route latency harness against
# a daemon with the tracing plane at its defaults and again with the full
# plane on (debug slog + client-injected trace ids on every request), and
# record the p50-based overhead per route into BENCH_obs.json. The
# acceptance bar is <2% on the artifact pull path; run on a quiet machine —
# the off/on arms are interleaved and best-of-N to shave scheduler noise.
bench-obs:
	$(GO) run ./cmd/nitro-experiments -run obs -obs-json BENCH_obs.json

# Static analysis beyond vet. Uses staticcheck when it is installed
# (CI installs it); locally it is skipped with a note rather than failing
# the build, because the toolchain image is offline.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

ci: lint build race

clean:
	$(GO) clean ./...
