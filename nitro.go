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
	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/obs"
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

// Trace modes: Off mutes an installed tracer, Sampled admits one call in
// TracePolicy.SamplePeriod (counter-exact, so serial replays are
// deterministic), Always captures every call.
const (
	TraceOff     = obs.TraceOff
	TraceSampled = obs.TraceSampled
	TraceAlways  = obs.TraceAlways
)

// TracePolicy configures decision tracing: mode, sampling period and ring
// capacity. The zero value normalizes to Off with the default period (64)
// and capacity (256).
type TracePolicy = obs.TracePolicy

// DecisionTrace is one captured dispatch decision: the model explanation,
// the selection-time veto and quarantine view, the executed variant, the
// failure fallback hop count and the call's wall time. Its String form is
// deterministic under serial replay (wall-clock fields are excluded).
type DecisionTrace = obs.DecisionTrace

// MetricsRegistry aggregates metric collectors and debug variables and
// serves them as a Prometheus text exposition (/metrics), a JSON debug view
// (/vars), and the process-wide "nitro" expvar.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty metrics registry; register
// Context.Collector, Tracer.Collector and AdaptEngine.Collector on it, then
// call Serve (or mount Handler yourself).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

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
// Nitro-as-a-service: the client of the model registry daemon
// (cmd/nitro-server).

// FunctionSpec describes a tunable function to the registry: feature and
// variant names plus the fallback default variant.
type FunctionSpec = server.FunctionSpec

// RegistryClient talks to a registry daemon: registering specs, pulling
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

// RemoteSample is one labelled observation pushed to the registry's
// fleet-wide drift detector: a feature vector, per-variant times and the
// variant the local model predicted. Features and times must be finite,
// and the prediction a registered variant or -1 (no model).
type RemoteSample = online.RemoteSample
