// Package nitro is a Go implementation of Nitro, the programmer-directed
// autotuning framework for adaptive code-variant selection described in
//
//	Muralidharan, Shantharam, Hall, Garland, Catanzaro.
//	"Nitro: A Framework for Adaptive Code Variant Tuning." IPDPS 2014.
//
// Expert programmers register code variants — functionally equivalent
// implementations of one computation — together with input-feature functions
// and optional per-variant constraints. An offline autotuner labels training
// inputs by exhaustive search, fits a multi-class SVM (RBF kernel, features
// scaled to [-1, 1], cross-validated parameter search), and installs the
// model so that deployment-time calls select the best variant for each new
// input from its features alone. Incremental tuning (Best-vs-Second-Best
// active learning) cuts the number of exhaustively searched training inputs,
// and feature evaluation can run in parallel or asynchronously.
//
// The package is a thin facade over internal/core (the library runtime) and
// internal/autotuner (the offline tuner). The five benchmark substrates the
// paper evaluates on — SpMV, sparse linear solvers, BFS, histogram and sort,
// each with every code variant implemented and costed on a deterministic GPU
// model — live under internal/ and are exercised by the example programs,
// the experiment harnesses in cmd/, and the benchmarks at the repo root.
//
// Minimal usage:
//
//	cx := nitro.NewContext()
//	cv := nitro.NewCodeVariant[MyInput](cx, nitro.DefaultPolicy("mine"))
//	cv.AddVariant("fast-small", fastSmall)
//	cv.AddVariant("fast-large", fastLarge)
//	cv.SetDefault("fast-small")
//	cv.AddInputFeature(nitro.Feature[MyInput]{Name: "size", Eval: size})
//
//	tuner := nitro.NewAutotuner(cv, nitro.TrainOptions{GridSearch: true})
//	tuner.Tune(trainingInputs)     // exhaustive search + SVM fit + distill
//
//	value, chosen, err := cv.Call(input)  // adaptive dispatch
//
// A tuned CodeVariant is safe to share: Call, FixInputs/CallFixed and
// CallConcurrent may run from any number of goroutines, models can be
// hot-swapped mid-traffic with Context.SetModel/LoadModel, and Context.Stats
// snapshots the sharded call counters without stopping traffic:
//
//	results := cv.CallConcurrent(batch, 0) // fan a batch over all cores
//
//	f := cv.FixInputs(input) // async: overlap feature evaluation ...
//	doOtherWork()
//	value, chosen, err = f.Call() // ... then select on the fixed input
//
// Dispatch is fault tolerant: a variant that panics, aborts (Abort) or
// exceeds TuningPolicy.VariantTimeout surfaces as a typed *VariantError and
// the runtime falls back to the next-best variant (model score order, then
// the default) instead of crashing; an optional per-variant quarantine
// circuit breaker (TuningPolicy.Quarantine) excludes repeatedly failing
// variants from selection until a half-open probe recovers them. CallCtx and
// CallConcurrentCtx add caller-controlled cancellation, and WrapFault
// provides the seeded fault-injection harness used to test degradation:
//
//	policy.VariantTimeout = 5 * time.Millisecond
//	policy.Quarantine = nitro.DefaultQuarantine()
//	value, chosen, err = cv.CallCtx(ctx, input)
//
// Deployments whose input distribution drifts away from the offline training
// corpus can enable online adaptation: an engine samples live calls, spends a
// small epsilon-greedy exploration budget re-timing the alternative variants
// on sampled inputs, detects sustained drift when two windows in a row
// mispredict the observed best at least MismatchThreshold of the time,
// retrains in the background on the drifted observations, and hot-swaps the
// new model in (rolling back when the candidate loses its holdout
// validation). Adaptation is inert by default and deterministic under a
// fixed seed:
//
//	eng, err := nitro.EnableAdaptation(cv, nitro.DefaultAdaptPolicy(42))
//	defer eng.Close()
//	// ... serve traffic; eng.Stats() / eng.Events() report the timeline.
//
// Every layer is observable. Decision tracing captures, per sampled call, the
// full selection derivation — raw and scaled features, per-class SVM scores
// and pairwise decision values, the ranked preference order, constraint
// vetoes, quarantine state, fallback hops and the executed variant — without
// costing the untraced hot path more than one atomic load. Per-variant
// latency histograms add p50/p95/p99 and relative-regret estimates to
// Context.Stats, and a MetricsRegistry serves everything (Prometheus text
// exposition plus a JSON debug view) over HTTP:
//
//	tracer := cv.EnableTracing(nitro.TracePolicy{Mode: nitro.TraceSampled})
//	cx.EnableLatencyHistograms("mine")
//
//	reg := nitro.NewMetricsRegistry()
//	reg.Register(cx.Collector())
//	reg.Register(tracer.Collector("mine"))
//	srv, _ := reg.Serve("127.0.0.1:9090") // /metrics, /vars, /healthz
//	defer srv.Close()
package nitro

import (
	"context"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/obs/trace"
	"nitro/internal/online"
	"nitro/internal/server"
	"nitro/internal/server/client"
)

// Context maintains global tuning state (models, statistics) shared by the
// code variants of a program; it mirrors nitro::context in the paper.
type Context = core.Context

// NewContext returns an empty tuning context.
func NewContext() *Context { return core.NewContext() }

// TuningPolicy carries per-function tuning options (the contents of the
// paper's generated tuning_policies header).
type TuningPolicy = core.TuningPolicy

// DefaultPolicy returns the paper's defaults for a named tunable function:
// constraints enabled, serial synchronous feature evaluation.
func DefaultPolicy(name string) TuningPolicy { return core.DefaultPolicy(name) }

// CodeVariant is a tunable function with registered variants, features and
// constraints; it mirrors nitro::code_variant.
type CodeVariant[In any] = core.CodeVariant[In]

// NewCodeVariant creates a tunable function bound to a context.
func NewCodeVariant[In any](cx *Context, policy TuningPolicy) *CodeVariant[In] {
	return core.New[In](cx, policy)
}

// VariantFn executes one code variant and returns its optimization value
// (by convention, the time taken; any minimized criterion works).
type VariantFn[In any] = core.VariantFn[In]

// ConstraintFn vetoes a variant for an input when it returns false.
type ConstraintFn[In any] = core.ConstraintFn[In]

// Feature is an input-feature function with an optional evaluation-cost
// model used for overhead accounting. Eval and Cost must be pure functions
// of the input: Call evaluates a feature only when its decision reads it,
// at most once per call and before the variant runs, and FeatureSeconds
// charges only the features a call evaluated.
type Feature[In any] = core.Feature[In]

// CallStats aggregates deployment-time selection statistics.
type CallStats = core.CallStats

// Fixed is the per-call future returned by CodeVariant.FixInputs: it binds
// one input to its (possibly still evaluating) feature vector so that
// selection, constraints and execution always agree on the same input.
// Consume it exactly once with Fixed.Call or CodeVariant.CallFixed.
type Fixed[In any] = core.Fixed[In]

// CallResult is one outcome of a CodeVariant.CallConcurrent batch.
type CallResult = core.CallResult

// ErrAllVariantsVetoed is returned by Call when deployment-time constraints
// veto every registered variant for an input.
var ErrAllVariantsVetoed = core.ErrAllVariantsVetoed

// VariantError describes one failed variant invocation (recovered panic,
// Abort, or timeout); use errors.As to inspect it.
type VariantError = core.VariantError

// ErrVariantTimeout is the VariantError cause when an invocation exceeds
// TuningPolicy.VariantTimeout.
var ErrVariantTimeout = core.ErrVariantTimeout

// ErrModelMismatch is wrapped by Context.SetModel, LoadModel and SetCanary
// when a model, or its compiled artifact, is structurally incompatible with
// the registered tunable function.
var ErrModelMismatch = core.ErrModelMismatch

// ErrInjectedFault is the error mode injected by WrapFault.
var ErrInjectedFault = core.ErrInjectedFault

// Abort aborts the calling variant with err: dispatch converts it into a
// *VariantError and walks the fallback chain, exactly as for a panic. It is
// the sanctioned way for a value-returning VariantFn to report that it cannot
// handle an input.
func Abort(err error) { core.Abort(err) }

// QuarantinePolicy configures the per-variant failure circuit breaker
// (TuningPolicy.Quarantine); the zero value disables quarantining.
type QuarantinePolicy = core.QuarantinePolicy

// DefaultQuarantine returns the breaker configuration used by the examples
// and the fault-injection harness: 5 failures within 1s quarantine a variant
// for 100ms.
func DefaultQuarantine() QuarantinePolicy { return core.DefaultQuarantine() }

// FaultConfig configures WrapFault's seeded fault injection.
type FaultConfig = core.FaultConfig

// WrapFault wraps a variant function with seeded fault injection (panics,
// aborts, delays) for robustness testing.
func WrapFault[In any](fn VariantFn[In], cfg FaultConfig) VariantFn[In] {
	return core.WrapFault(fn, cfg)
}

// TrainOptions configures the offline tuner's classifier ("svm", "knn",
// "tree" or "logistic") and the cross-validated grid search.
type TrainOptions = autotuner.TrainOptions

// TuneReport summarizes a training run: label distribution, skipped inputs,
// training accuracy and grid-search outcome.
type TuneReport = autotuner.Report

// Autotuner drives the offline pipeline for one code variant: exhaustive
// search over training inputs, feature scaling, classifier fit, and model
// installation; it mirrors the paper's Python nitro.autotuner.
type Autotuner[In any] = autotuner.Tuner[In]

// NewAutotuner builds an offline tuner for cv.
func NewAutotuner[In any](cv *CodeVariant[In], opts TrainOptions) *Autotuner[In] {
	return &Autotuner[In]{CV: cv, Opts: opts}
}

// AdaptPolicy configures an online adaptation engine: sampling rate,
// exploration budget, the drift detector's window and mismatch threshold
// (its hysteresis is fixed at two windows), and the background retrainer.
type AdaptPolicy = online.Policy

// DefaultAdaptPolicy returns a balanced adaptation configuration (sample
// every 4th call, explore a quarter of the samples) driven by seed.
func DefaultAdaptPolicy(seed int64) AdaptPolicy { return online.DefaultPolicy(seed) }

// AdaptEngine is a per-function online adaptation engine; detach with Close,
// toggle with Pause/Resume, observe with Stats/State/Events.
type AdaptEngine[In any] = online.Engine[In]

// AdaptEvent is one entry of an adaptation engine's deterministic timeline
// (window closures, drift detections, retrains, swaps, rollbacks).
type AdaptEvent = online.Event

// AdaptState is the engine's drift state ("healthy", "drifting",
// "retraining").
type AdaptState = online.State

// AdaptStats is a point-in-time snapshot of an adaptation engine's counters;
// it serializes to stable snake_case JSON like CallStats.
type AdaptStats = core.AdaptStats

// RetrainOptions configures the online retrainer (classifier options,
// optional BvSB incremental seeding, holdout fraction, acceptance margin).
type RetrainOptions = autotuner.RetrainOptions

// Model is a trained variant-selection model: classifier, feature scaler and
// metadata, hot-swappable via Context.SetModel/LoadModel.
type Model = ml.Model

// Compiled is the distilled fast-dispatch artifact the autotuner attaches to
// every Model it installs: a flattened threshold program over the scaled
// feature space with a calibrated exact-model fallback margin.
type Compiled = ml.Compiled

// Tier identifies which dispatch tier served a prediction (see CallStats'
// MemoHits/CompiledHits/ExactFallbacks and DecisionTrace.Tier).
type Tier = ml.Tier

// Dispatch tiers, from cheapest to most expensive.
const (
	TierNone     = ml.TierNone
	TierExact    = ml.TierExact
	TierCompiled = ml.TierCompiled
	TierMemo     = ml.TierMemo
)

// Explanation is a full derivation of one model decision: raw and scaled
// features, per-class scores, pairwise SVM decision values, and the ranked
// class preference order dispatch walks on fallback. Produced by
// Model.Explain, which reuses the exact scoring paths dispatch itself uses,
// so an explanation can never disagree with the decision it explains.
type Explanation = ml.Explanation

// TraceMode selects a decision tracer's admission policy.
type TraceMode = obs.TraceMode

// Trace modes: Off mutes an installed tracer, Sampled admits one call in
// TracePolicy.SamplePeriod (counter-exact, so serial replays are
// deterministic), Always captures every call.
const (
	TraceOff     = obs.TraceOff
	TraceSampled = obs.TraceSampled
	TraceAlways  = obs.TraceAlways
)

// ParseTraceMode parses "off", "sampled" or "always".
func ParseTraceMode(s string) (TraceMode, error) { return obs.ParseTraceMode(s) }

// TracePolicy configures decision tracing: mode, sampling period and ring
// capacity. The zero value normalizes to Off with the default period (64)
// and capacity (256).
type TracePolicy = obs.TracePolicy

// DecisionTrace is one captured dispatch decision: the model explanation,
// the selection-time veto and quarantine view, the executed variant, the
// failure fallback hop count and the call's wall time. Its String form is
// deterministic under serial replay (wall-clock fields are excluded).
type DecisionTrace = obs.DecisionTrace

// Tracer is a lock-free sampled decision-trace ring buffer; install one with
// CodeVariant.EnableTracing and read it with Recent, or stream every
// admitted trace through SetSink.
type Tracer = obs.Tracer

// TraceSink receives every admitted DecisionTrace synchronously on the
// dispatching goroutine; keep it fast.
type TraceSink = obs.TraceSink

// LatencySummary digests one variant's latency histogram: count, mean,
// min/max, p50/p95/p99 and the relative regret against the best variant.
// Context.Stats fills CallStats.Latency with these once
// Context.EnableLatencyHistograms is on.
type LatencySummary = obs.LatencySummary

// MetricsRegistry aggregates metric collectors and debug variables and
// serves them as a Prometheus text exposition (/metrics), a JSON debug view
// (/vars), and the process-wide "nitro" expvar.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry; register
// Context.Collector, Tracer.Collector and AdaptEngine.Collector on it, then
// call Serve (or mount Handler yourself).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsServer is a live telemetry endpoint started by
// MetricsRegistry.Serve; Addr reports the bound address, Close shuts it
// down.
type MetricsServer = obs.Server

// PhaseTracker accumulates named phase durations (the offline tuner reports
// search/fit/install timings through one); nil-safe, so it can be threaded
// through options unconditionally.
type PhaseTracker = obs.PhaseTracker

// NewPhaseTracker returns an empty phase tracker.
func NewPhaseTracker() *PhaseTracker { return obs.NewPhaseTracker() }

// EnableAdaptation attaches an online adaptation engine to cv: live calls
// are sampled and explored per pol, sustained drift triggers a background
// retrain on the drifted observations, and an accepted candidate is
// hot-swapped into the context's model slot (a rejected one is rolled back).
// The engine observes every Call path until Close. Adaptation never changes
// what a call returns — with ExploreRate 0 the engine is observationally
// identical to plain Call.
func EnableAdaptation[In any](cv *CodeVariant[In], pol AdaptPolicy) (*AdaptEngine[In], error) {
	return online.Attach(cv, pol)
}

// ---------------------------------------------------------------------------
// Nitro-as-a-service: the model registry daemon and its client.

// TuningServer is a multi-tenant model registry daemon: it owns tuned models
// for many functions, queues tuning jobs over pushed observation corpora,
// versions and persists model artifacts, detects fleet-wide drift, and gates
// new versions behind a fraction-limited canary before promotion. Start one
// with NewTuningServer, stop it with Shutdown.
type TuningServer = server.Daemon

// TuningServerConfig configures a TuningServer: listen address, tenants with
// quotas, persistence directory, tuning workers and canary policy.
type TuningServerConfig = server.Config

// NewTuningServer builds and starts a registry daemon.
func NewTuningServer(cfg TuningServerConfig) (*TuningServer, error) {
	d, err := server.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	if err := d.Start(cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// TenantConfig declares one registry tenant: name, bearer token and quotas.
type TenantConfig = server.TenantConfig

// TenantQuotas caps a tenant's registered functions, pending tune jobs and
// observation-push rate; zero fields are unlimited.
type TenantQuotas = server.Quotas

// FunctionSpec describes a tunable function to the registry: feature and
// variant names plus the fallback default variant.
type FunctionSpec = server.FunctionSpec

// ServerCanaryPolicy is the server-side canary gate: traffic fraction,
// fleet-wide sample floor and the failure rate that triggers rollback.
type ServerCanaryPolicy = server.CanaryPolicy

// Deployment is a function's registry deployment state: stable and latest
// versions, the in-flight canary (if any) and the last canary decision.
type Deployment = server.Deployment

// RegistryClient talks to a TuningServer: registering specs, pulling
// ETag-cached model artifacts, pushing observations and reporting canary
// outcomes, with retry/backoff on transient failures.
type RegistryClient = client.Client

// RegistryClientConfig configures a RegistryClient (base URL, tenant token,
// retry budget).
type RegistryClientConfig = client.Config

// NewRegistryClient validates cfg and returns a registry client.
func NewRegistryClient(cfg RegistryClientConfig) (*RegistryClient, error) {
	return client.New(cfg)
}

// ModelPoller reconciles a local Context against a function's registry
// deployment: it installs new stable versions by atomic hot-swap, serves
// challenger models to the canary traffic fraction, reports outcomes, and
// promotes or rolls back on the server's verdict. Call PollOnce on a timer.
type ModelPoller = client.Poller

// NewModelPoller binds a poller to a client, context and function name.
func NewModelPoller(c *RegistryClient, cx *Context, fn string) *ModelPoller {
	return client.NewPoller(c, cx, fn)
}

// TraceIDHeader is the HTTP header that correlates a request with the
// registry's structured logs, journal records and flight recorder.
const TraceIDHeader = trace.Header

// WithTraceID attaches a fleet trace id to ctx: every registry request
// issued under the returned context (and any canary episode or verdict it
// produces server-side) is correlated under that id. Ids are confined to
// [A-Za-z0-9._-] and 64 bytes; anything else is replaced server-side.
func WithTraceID(ctx context.Context, id string) context.Context {
	return trace.With(ctx, id)
}

// TraceIDFrom returns the fleet trace id carried by ctx, or "".
func TraceIDFrom(ctx context.Context) string { return trace.From(ctx) }

// RemoteSample is one labelled observation pushed to the registry's
// fleet-wide drift detector: a feature vector, per-variant times and the
// variant the local model predicted. Features and times must be finite,
// and the prediction a registered variant or -1 (no model).
type RemoteSample = online.RemoteSample

// FleetStats snapshots the server-side drift detector for one function.
type FleetStats = online.FleetStats
