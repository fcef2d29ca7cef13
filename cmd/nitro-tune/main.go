// Command nitro-tune is the Go stand-in for the paper's Python tuning script
// (Fig. 3): it reads a JSON tuning specification, runs the offline autotuner
// over a training corpus, writes the deployable model file, and optionally
// evaluates it on the held-out test corpus.
//
// Two input modes are supported:
//
//   - "benchmark": one of the built-in corpora (SpMV, Solvers, BFS,
//     Histogram, Sort), generated synthetically at the configured scale;
//   - "train_glob"/"test_glob" (SpMV only): MatrixMarket .mtx files, the
//     paper's own training-input mechanism
//     (tuner.set_training_args(glob.glob("inputs/training/*.mtx"))).
//
// Example spec:
//
//	{
//	  "function":   "spmv",
//	  "benchmark":  "SpMV",
//	  "classifier": "svm",
//	  "grid_search": true,
//	  "incremental": {"iterations": 25},
//	  "scale": 0.5,
//	  "seed": 42,
//	  "model_out": "spmv.model.json",
//	  "evaluate": true
//	}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/par"
	"nitro/internal/sparse"
)

// Spec is the JSON tuning specification.
type Spec struct {
	Function   string  `json:"function"`
	Benchmark  string  `json:"benchmark"`
	Classifier string  `json:"classifier"`
	GridSearch bool    `json:"grid_search"`
	Scale      float64 `json:"scale"`
	Seed       int64   `json:"seed"`
	TrainCount int     `json:"train_count"`
	TestCount  int     `json:"test_count"`
	ModelOut   string  `json:"model_out"`
	Evaluate   bool    `json:"evaluate"`

	// Distill, when true, distills the fitted classifier into a compiled
	// dispatch artifact over the training corpus and installs it on the
	// written model when it passes the agreement/fallback gates (the
	// sub-100ns deployment fast path). Rejection is not an error — the
	// reason is printed and the exact model ships alone. The -distill flag
	// overrides the spec value.
	Distill bool `json:"distill"`
	// DistillGrid additionally precomputes the O(1) decision-grid lookup on
	// the compiled artifact (low-dimensional functions only).
	DistillGrid bool `json:"distill_grid"`

	// Parallelism is the worker count used for corpus labelling and the SVM
	// grid search (0 = all cores, 1 = serial). Results are bit-identical at
	// every setting; the -parallelism flag overrides the spec value.
	Parallelism int `json:"parallelism"`

	TrainGlob string `json:"train_glob"`
	TestGlob  string `json:"test_glob"`

	Incremental *struct {
		Iterations     int     `json:"iterations"`
		TargetAccuracy float64 `json:"target_accuracy"`
	} `json:"incremental"`

	// The remaining Table II options of the paper's tuning interface. They
	// configure the deployment-time tuning policy which, like the paper's
	// generated header, is written to PolicyOut for the application to load.
	Constraints         *bool  `json:"constraints"`
	ParallelFeatureEval bool   `json:"parallel_feature_evaluation"`
	AsyncFeatureEval    bool   `json:"async_feature_eval"`
	PolicyOut           string `json:"policy_out"`

	// CrossValidate, when >= 2, additionally reports k-fold cross-validated
	// selection performance on the training corpus.
	CrossValidate int `json:"cross_validate"`

	// Throughput, when > 0, replays that many deployment-time selections of
	// the tuned model over the feasible test instances through a live
	// core.CodeVariant — once serially and once fanned over all cores — and
	// reports calls/sec plus the concurrent speedup. This exercises the
	// lock-free selection engine (atomic model load, constraint check,
	// sharded statistics), not the simulated kernels. The -throughput flag
	// overrides the spec value.
	Throughput int `json:"throughput"`

	// InjectFaults, when non-empty, injects seeded faults into one variant of
	// the throughput replay to demonstrate graceful degradation. Format:
	// "variant=<name>[,panic=R][,error=R][,delay=R][,delayms=N][,timeoutms=N][,seed=N]"
	// where the R rates are per-call probabilities in [0, 1]. The replay then
	// runs with the quarantine breaker and (when timeoutms is set) a
	// per-variant deadline, and reports the fault counters instead of aborting
	// on the injected failures. Requires Throughput > 0. The -inject-faults
	// flag overrides the spec value.
	InjectFaults string `json:"inject_faults"`

	// OnlineReplay, when > 0, replays that many deployment calls through a
	// live CodeVariant with an online adaptation engine attached, injecting a
	// synthetic concept drift (every instance's per-variant costs rotated by
	// one slot) at DriftAt of the stream, and prints the engine's adaptation
	// timeline: windows, drift detection, retrain, hot-swap (or rollback) and
	// recovery. The replay is serial and seeded, so its output is reproducible
	// byte for byte. The -online-replay flag overrides the spec value.
	OnlineReplay int `json:"online_replay"`
	// DriftAt is the fraction of the online replay stream after which the
	// drift is injected (default 0.3; must be in [0, 1)).
	DriftAt float64 `json:"drift_at"`

	// StatsJSON additionally emits the replay context's CallStats — and, for
	// an online replay, the engine's AdaptStats — as one machine-readable JSON
	// line after each replay. Requires Throughput > 0 or OnlineReplay > 0.
	// The -stats-json flag overrides the spec value.
	StatsJSON bool `json:"stats_json"`

	// Trace enables decision tracing on the replay CodeVariant: "off",
	// "sampled" (1-in-64, counter-exact) or "always". A throughput replay
	// reports the number of captured traces; an online replay — which is
	// serial — additionally prints the trace timeline, reproducible byte for
	// byte across runs. Requires Throughput > 0 or OnlineReplay > 0. The
	// -trace flag overrides the spec value.
	Trace string `json:"trace"`

	// PhaseTimings prints the accumulated per-phase wall time of the offline
	// pipeline (corpus generate/label, feature scaling, classifier fit or
	// grid search) after tuning. The -phase-timings flag overrides the spec
	// value.
	PhaseTimings bool `json:"phase_timings"`

	// MetricsAddr, when non-empty, serves the live telemetry endpoint
	// (/metrics Prometheus text, /vars JSON debug view, /healthz) on that
	// address for the duration of the run: tuner phase timings, replay
	// deployment counters and — for an online replay — the adaptation
	// engine's drift gauges. Use "127.0.0.1:0" to pick a free port; the bound
	// address is printed. The -metrics-addr flag overrides the spec value.
	MetricsAddr string `json:"metrics_addr"`
}

// errBadSpec is wrapped by every spec-validation failure, so tests (and
// callers) can detect rejected configurations with errors.Is.
var errBadSpec = errors.New("invalid tuning spec")

// validateSpec rejects nonsensical configurations up front, before any
// tuning work (or partial output) happens.
func validateSpec(spec Spec) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: %s", errBadSpec, fmt.Sprintf(format, args...))
	}
	if spec.Function == "" {
		return bad("function must be set")
	}
	if spec.Benchmark == "" && spec.TrainGlob == "" {
		return bad("either benchmark or train_glob must be set")
	}
	if spec.Scale < 0 {
		return bad("scale %v must be >= 0", spec.Scale)
	}
	if spec.TrainCount < 0 || spec.TestCount < 0 {
		return bad("train_count/test_count must be >= 0, got %d/%d", spec.TrainCount, spec.TestCount)
	}
	if spec.Parallelism < 0 {
		return bad("parallelism %d must be >= 0 (0 = all cores)", spec.Parallelism)
	}
	if spec.Throughput < 0 {
		return bad("throughput %d must be >= 0", spec.Throughput)
	}
	if spec.CrossValidate < 0 || spec.CrossValidate == 1 {
		return bad("cross_validate %d must be 0 (off) or >= 2 folds", spec.CrossValidate)
	}
	if inc := spec.Incremental; inc != nil {
		if inc.Iterations < 0 {
			return bad("incremental.iterations %d must be >= 0", inc.Iterations)
		}
		if inc.Iterations == 0 && inc.TargetAccuracy <= 0 {
			return bad("incremental tuning needs iterations > 0 or target_accuracy > 0")
		}
		if inc.TargetAccuracy < 0 || inc.TargetAccuracy > 1 {
			return bad("incremental.target_accuracy %v must be in [0, 1]", inc.TargetAccuracy)
		}
	}
	if spec.InjectFaults != "" {
		if spec.Throughput <= 0 {
			return bad("inject_faults requires throughput > 0")
		}
		if _, err := parseFaultSpec(spec.InjectFaults); err != nil {
			return fmt.Errorf("%w: %v", errBadSpec, err)
		}
	}
	if spec.OnlineReplay < 0 {
		return bad("online_replay %d must be >= 0", spec.OnlineReplay)
	}
	if spec.DriftAt < 0 || spec.DriftAt >= 1 {
		return bad("drift_at %v must be in [0, 1)", spec.DriftAt)
	}
	if spec.DriftAt > 0 && spec.OnlineReplay == 0 {
		return bad("drift_at requires online_replay > 0")
	}
	if spec.StatsJSON && spec.Throughput <= 0 && spec.OnlineReplay <= 0 {
		return bad("stats_json requires throughput > 0 or online_replay > 0")
	}
	if spec.Trace != "" {
		if _, err := obs.ParseTraceMode(spec.Trace); err != nil {
			return fmt.Errorf("%w: %v", errBadSpec, err)
		}
		if spec.Throughput <= 0 && spec.OnlineReplay <= 0 {
			return bad("trace requires throughput > 0 or online_replay > 0")
		}
	}
	return nil
}

// faultSpec is the parsed form of the inject_faults option.
type faultSpec struct {
	Variant string
	Cfg     core.FaultConfig
	Timeout time.Duration
}

// parseFaultSpec parses "variant=NAME,panic=0.15,delay=0.1,delayms=30,...".
func parseFaultSpec(s string) (faultSpec, error) {
	fs := faultSpec{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return fs, fmt.Errorf("inject_faults: %q is not key=value", part)
		}
		num := func() (float64, error) {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return 0, fmt.Errorf("inject_faults: bad value %q for %s", val, key)
			}
			return f, nil
		}
		var f float64
		var err error
		switch key {
		case "variant":
			fs.Variant = val
			continue
		default:
			if f, err = num(); err != nil {
				return fs, err
			}
		}
		switch key {
		case "panic":
			fs.Cfg.PanicRate = f
		case "error":
			fs.Cfg.ErrorRate = f
		case "delay":
			fs.Cfg.DelayRate = f
		case "delayms":
			fs.Cfg.Delay = time.Duration(f * float64(time.Millisecond))
		case "timeoutms":
			fs.Timeout = time.Duration(f * float64(time.Millisecond))
		case "seed":
			fs.Cfg.Seed = int64(f)
		default:
			return fs, fmt.Errorf("inject_faults: unknown key %q", key)
		}
	}
	if fs.Variant == "" {
		return fs, errors.New("inject_faults: variant=<name> is required")
	}
	if sum := fs.Cfg.PanicRate + fs.Cfg.ErrorRate + fs.Cfg.DelayRate; sum > 1 {
		return fs, fmt.Errorf("inject_faults: rates sum to %v > 1", sum)
	}
	return fs, nil
}

func main() {
	specPath := flag.String("spec", "", "path to the JSON tuning spec (required)")
	parallelism := flag.Int("parallelism", -1, "worker count for corpus labelling and grid search (0 = all cores, 1 = serial, -1 = use spec value); results are identical at every setting")
	throughput := flag.Int("throughput", -1, "number of deployment-replay selections to time after tuning (0 = none, -1 = use spec value)")
	injectFaults := flag.String("inject-faults", "", "inject seeded faults into one replay variant, e.g. \"variant=CSR,panic=0.15,delay=0.1,delayms=30,timeoutms=5\" (requires a throughput replay; overrides the spec value)")
	onlineReplay := flag.Int("online-replay", -1, "number of deployment calls to replay through an online adaptation engine with a synthetic mid-stream drift (0 = none, -1 = use spec value); the printed timeline is reproducible byte for byte")
	statsJSON := flag.Bool("stats-json", false, "emit replay CallStats/AdaptStats as machine-readable JSON lines (requires a throughput or online replay; overrides the spec value)")
	trace := flag.String("trace", "", "decision tracing for the replays: off, sampled or always (requires a throughput or online replay; overrides the spec value)")
	phaseTimings := flag.Bool("phase-timings", false, "print accumulated per-phase wall time of the offline pipeline (overrides the spec value)")
	metricsAddr := flag.String("metrics-addr", "", "serve the live telemetry endpoint (/metrics, /vars, /healthz) on this address for the run, e.g. 127.0.0.1:9090 (overrides the spec value)")
	distill := flag.Bool("distill", false, "distill the fitted classifier into a compiled dispatch artifact when it passes the agreement gates (overrides the spec value)")
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "usage: nitro-tune -spec tuning.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		fatal(fmt.Errorf("read spec: %w", err))
	}
	var spec Spec
	if err := json.Unmarshal(data, &spec); err != nil {
		fatal(fmt.Errorf("bad spec %s: %w", *specPath, err))
	}
	if *parallelism >= 0 {
		spec.Parallelism = *parallelism
	}
	if *throughput >= 0 {
		spec.Throughput = *throughput
	}
	if *injectFaults != "" {
		spec.InjectFaults = *injectFaults
	}
	if *onlineReplay >= 0 {
		spec.OnlineReplay = *onlineReplay
	}
	if *statsJSON {
		spec.StatsJSON = true
	}
	if *trace != "" {
		spec.Trace = *trace
	}
	if *phaseTimings {
		spec.PhaseTimings = true
	}
	if *metricsAddr != "" {
		spec.MetricsAddr = *metricsAddr
	}
	if *distill {
		spec.Distill = true
	}
	if err := runSpec(spec, os.Stdout); err != nil {
		fatal(err)
	}
}

// telemetry bundles the run-scoped observability state runSpec threads
// through the pipeline and the replays: the phase tracker (always present;
// printed only with PhaseTimings), the optional live metrics registry, and
// the parsed trace mode.
type telemetry struct {
	phases   *obs.PhaseTracker
	reg      *obs.Registry // nil unless MetricsAddr is set
	trace    obs.TraceMode
	traceSet bool
}

// newTelemetry builds the run's telemetry state from the validated spec.
func newTelemetry(spec Spec) (*telemetry, error) {
	tel := &telemetry{phases: obs.NewPhaseTracker()}
	if spec.Trace != "" {
		mode, err := obs.ParseTraceMode(spec.Trace)
		if err != nil {
			return nil, err
		}
		tel.trace = mode
		tel.traceSet = true
	}
	if spec.MetricsAddr != "" {
		tel.reg = obs.NewRegistry()
		tel.reg.Register(tel.phases.Collector())
	}
	return tel, nil
}

// enableTracing installs a tracer on the replay CodeVariant when the spec
// asked for one, and registers its counters on the metrics registry.
func (tel *telemetry) enableTracing(cv *core.CodeVariant[autotuner.Instance], function string) *obs.Tracer {
	if !tel.traceSet {
		return nil
	}
	tracer := cv.EnableTracing(obs.TracePolicy{Mode: tel.trace})
	if tel.reg != nil {
		tel.reg.Register(tracer.Collector(function))
	}
	return tracer
}

func runSpec(spec Spec, out io.Writer) error {
	if err := validateSpec(spec); err != nil {
		return err
	}
	tel, err := newTelemetry(spec)
	if err != nil {
		return err
	}
	if tel.reg != nil {
		srv, err := tel.reg.Serve(spec.MetricsAddr)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		// Drain gracefully on teardown so an in-flight scrape finishes its
		// body instead of being cut mid-exposition; the deadline bounds how
		// long a stuck scraper can delay process exit.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx) //nolint:errcheck // best-effort drain at exit
		}()
		fmt.Fprintf(out, "metrics endpoint: http://%s/metrics\n", srv.Addr())
	}
	dev := gpusim.Fermi()
	suite, err := buildSuite(spec, tel, dev)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "function %q: %d variants, %d features, %d training / %d test inputs\n",
		spec.Function, len(suite.VariantNames), len(suite.FeatureNames), len(suite.Train), len(suite.Test))

	opts := autotuner.TrainOptions{
		Classifier:  spec.Classifier,
		GridSearch:  spec.GridSearch,
		Seed:        spec.Seed,
		Parallelism: spec.Parallelism,
		Phases:      tel.phases,
		Distill:     spec.Distill,
		DistillOpts: ml.DistillOptions{Grid: spec.DistillGrid},
	}
	var model *ml.Model
	var distillNote string
	if spec.Incremental != nil {
		res, err := autotuner.IncrementalTune(suite, autotuner.IncrementalOptions{
			TrainOptions:   opts,
			MaxIterations:  spec.Incremental.Iterations,
			TargetAccuracy: spec.Incremental.TargetAccuracy,
		}, suite)
		if err != nil {
			return err
		}
		model = res.Model
		distillNote = res.DistillNote
		fmt.Fprintf(out, "incremental tuning: seed %d, %d exhaustive-search queries\n", res.SeedSize, res.Queries)
	} else {
		m, rep, err := autotuner.Train(suite.Train, opts)
		if err != nil {
			return err
		}
		model = m
		distillNote = rep.DistillNote
		fmt.Fprintf(out, "trained on %d labelled inputs (%d skipped), training accuracy %.1f%%\n",
			len(rep.Labels), rep.Skipped, 100*rep.TrainAccuracy)
		if rep.Grid.Evaluated > 0 {
			fmt.Fprintf(out, "grid search: C=%g gamma=%g (CV accuracy %.1f%%, %d points)\n",
				rep.Grid.C, rep.Grid.Gamma, 100*rep.Grid.Accuracy, rep.Grid.Evaluated)
		}
	}
	if spec.Distill {
		if c := model.Compiled; c != nil {
			fmt.Fprintf(out, "compiled dispatch: %d nodes depth %d, agreement %.2f%%, exact fallback %.1f%%\n",
				len(c.Nodes), c.Depth(), 100*c.Agreement, 100*c.FallbackRate)
		} else {
			fmt.Fprintf(out, "compiled dispatch: not installed (%s)\n", distillNote)
		}
	}
	if spec.ModelOut != "" {
		data, err := ml.MarshalModel(model)
		if err != nil {
			return err
		}
		if err := os.WriteFile(spec.ModelOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "model written to %s\n", spec.ModelOut)
	}
	if spec.PolicyOut != "" {
		policy := core.TuningPolicy{
			Name:                spec.Function,
			ParallelFeatureEval: spec.ParallelFeatureEval,
			AsyncFeatureEval:    spec.AsyncFeatureEval,
			ConstraintsEnabled:  spec.Constraints == nil || *spec.Constraints,
		}
		data, err := json.MarshalIndent(policy, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(spec.PolicyOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "tuning policy written to %s\n", spec.PolicyOut)
	}
	if spec.CrossValidate >= 2 {
		cvPerf, err := autotuner.CrossValidateSuite(suite, opts, spec.CrossValidate)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d-fold cross-validated selection performance: %.2f%%\n",
			spec.CrossValidate, 100*cvPerf)
	}
	if spec.Evaluate {
		eval := autotuner.Evaluate(model, suite, suite.Test)
		fmt.Fprintf(out, "test evaluation: %.2f%% of exhaustive-search performance (%d/%d exact picks)\n",
			100*eval.MeanPerf, eval.ExactMatches, eval.Evaluated)
	}
	if spec.Throughput > 0 {
		if err := replayThroughput(spec, tel, suite, model, out); err != nil {
			return err
		}
	}
	if spec.OnlineReplay > 0 {
		if err := runOnlineReplay(spec, tel, suite, model, out); err != nil {
			return err
		}
	}
	if spec.PhaseTimings {
		fmt.Fprintln(out, tel.phases)
	}
	if tel.reg != nil {
		// Self-scrape before shutdown: validate the exposition the endpoint
		// served (format + nitro_ name lint) and report its size, so a batch
		// run leaves evidence of what a scraper would have seen.
		text, err := tel.reg.PrometheusText()
		if err != nil {
			return fmt.Errorf("metrics exposition: %w", err)
		}
		if err := obs.ValidatePrometheusText(text); err != nil {
			return fmt.Errorf("metrics exposition: %w", err)
		}
		fmt.Fprintf(out, "metrics exposition valid: %d lines at shutdown\n", strings.Count(text, "\n"))
	}
	return nil
}

// replayThroughput installs the tuned model into a fresh context, wraps the
// suite in a live replay CodeVariant (autotuner.ReplayVariant), and times
// spec.Throughput deployment-time selections over the feasible test
// instances: once serially and once fanned over all cores. The replay
// variants return pre-measured costs, so what is being measured is the
// selection engine itself — atomic model load, feature evaluation,
// constraint check, sharded statistics — not the simulated kernels.
func replayThroughput(spec Spec, tel *telemetry, suite *autotuner.Suite, model *ml.Model, out io.Writer) error {
	feasible := autotuner.FeasibleTest(suite)
	if len(feasible) == 0 {
		return fmt.Errorf("throughput replay: no feasible test instances (set test_count or evaluate a benchmark with test inputs)")
	}
	var inject *faultSpec
	if spec.InjectFaults != "" {
		fs, err := parseFaultSpec(spec.InjectFaults)
		if err != nil {
			return err
		}
		inject = &fs
	}
	cx := core.NewContext()
	policy := core.TuningPolicy{
		Name:                spec.Function,
		ParallelFeatureEval: spec.ParallelFeatureEval,
		AsyncFeatureEval:    spec.AsyncFeatureEval,
		ConstraintsEnabled:  spec.Constraints == nil || *spec.Constraints,
	}
	if inject != nil {
		// Fault injection exercises the degradation machinery: quarantine the
		// flaky variant after repeated failures and (when configured) bound
		// each invocation with a deadline.
		policy.Quarantine = core.DefaultQuarantine()
		policy.VariantTimeout = inject.Timeout
	}
	// Build the replay variant first so the context knows the function's
	// shape, then install the model — SetModel validates it against the
	// registered features/variants and rejects a mismatched artifact.
	cv, err := autotuner.ReplayVariant(cx, suite, policy)
	if err != nil {
		return err
	}
	if err := cx.SetModel(spec.Function, model); err != nil {
		return err
	}
	tracer := tel.enableTracing(cv, spec.Function)
	if tel.reg != nil {
		// The endpoint's deployment view: per-function counters, per-variant
		// latency histograms, and the CallStats JSON debug var.
		cx.EnableLatencyHistograms(spec.Function)
		tel.reg.Register(cx.Collector())
		tel.reg.RegisterVar("call_stats:"+spec.Function, func() any { return cx.Stats(spec.Function) })
	}
	if inject != nil {
		found := false
		cv.WrapVariants(func(name string, fn core.VariantFn[autotuner.Instance]) core.VariantFn[autotuner.Instance] {
			if name != inject.Variant {
				return fn
			}
			found = true
			return core.WrapFault(fn, inject.Cfg)
		})
		if !found {
			return fmt.Errorf("%w: inject_faults variant %q is not registered (have %v)", errBadSpec, inject.Variant, suite.VariantNames)
		}
		fmt.Fprintf(out, "fault injection: variant %q panic=%.0f%% error=%.0f%% delay=%.0f%% (delay %v, timeout %v)\n",
			inject.Variant, 100*inject.Cfg.PanicRate, 100*inject.Cfg.ErrorRate, 100*inject.Cfg.DelayRate,
			inject.Cfg.Delay, inject.Timeout)
	}
	batch := make([]autotuner.Instance, spec.Throughput)
	for i := range batch {
		batch[i] = feasible[i%len(feasible)]
	}
	run := func(parallelism int) (float64, int, error) {
		start := time.Now()
		failed := 0
		for _, r := range cv.CallConcurrent(batch, parallelism) {
			if r.Err == nil {
				continue
			}
			// Under fault injection, typed variant errors are the expected
			// degraded outcome (the fallback chain itself was exhausted or the
			// instance had a single feasible variant); anything else — and any
			// error without injection — is a real failure.
			var ve *core.VariantError
			if inject != nil && errors.As(r.Err, &ve) {
				failed++
				continue
			}
			return 0, 0, r.Err
		}
		elapsed := time.Since(start)
		if elapsed <= 0 {
			elapsed = time.Nanosecond
		}
		return float64(len(batch)) / elapsed.Seconds(), failed, nil
	}
	serial, serialFailed, err := run(1)
	if err != nil {
		return err
	}
	concurrent, concFailed, err := run(0)
	if err != nil {
		return err
	}
	st := cx.Stats(spec.Function)
	fmt.Fprintf(out, "deployment replay: %d selections over %d feasible test inputs\n", spec.Throughput, len(feasible))
	fmt.Fprintf(out, "  serial:     %.0f calls/sec\n", serial)
	fmt.Fprintf(out, "  concurrent: %.0f calls/sec (%.2fx, %d workers)\n", concurrent, concurrent/serial, par.Workers(0))
	fmt.Fprintf(out, "  constraint fallbacks: %d of %d calls\n", st.DefaultFallbacks, st.Calls)
	if inject != nil {
		fmt.Fprintf(out, "  graceful degradation: %d panics recovered, %d timeouts, %d fallback hops\n",
			st.Panics, st.Timeouts, st.Fallbacks)
		fmt.Fprintf(out, "  quarantine: %d trips, %d recoveries; unresolved errors: %d serial + %d concurrent of %d calls\n",
			st.Quarantined, st.Recoveries, serialFailed, concFailed, 2*len(batch))
	}
	if tracer != nil {
		// The concurrent replay is unordered, so only the count is reported
		// here; the serial online replay prints full trace timelines.
		fmt.Fprintf(out, "  decision traces recorded: %d (mode %s)\n", tracer.Count(), tracer.Mode())
	}
	if spec.StatsJSON {
		return emitStatsJSON(out, st, nil)
	}
	return nil
}

func buildSuite(spec Spec, tel *telemetry, dev *gpusim.Device) (*autotuner.Suite, error) {
	if spec.TrainGlob != "" {
		if !strings.EqualFold(spec.Benchmark, "SpMV") && spec.Benchmark != "" {
			return nil, fmt.Errorf("file-based tuning is supported for SpMV only")
		}
		return spmvSuiteFromFiles(spec, dev)
	}
	cfg := datasets.Config{Seed: spec.Seed, Scale: spec.Scale,
		TrainCount: spec.TrainCount, TestCount: spec.TestCount,
		Parallelism: spec.Parallelism, Phases: tel.phases}
	for _, b := range datasets.Builders() {
		if strings.EqualFold(b.Name, spec.Benchmark) {
			return b.Build(cfg, dev)
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q (want SpMV, Solvers, BFS, Histogram or Sort)", spec.Benchmark)
}

// spmvSuiteFromFiles builds an SpMV suite from MatrixMarket files.
func spmvSuiteFromFiles(spec Spec, dev *gpusim.Device) (*autotuner.Suite, error) {
	load := func(glob string) ([]autotuner.Instance, error) {
		paths, err := filepath.Glob(glob)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no files match %q", glob)
		}
		rng := rand.New(rand.NewSource(spec.Seed))
		var out []autotuner.Instance
		for _, path := range paths {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			coo, err := sparse.ReadMatrixMarket(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			m := coo.ToCSR()
			x := make([]float64, m.Cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			p, err := sparse.NewProblem(m, x)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			inst := autotuner.Instance{ID: filepath.Base(path), Features: p.Features().Vector()}
			for _, v := range sparse.Variants() {
				if v.Constraint != nil && !v.Constraint(p) {
					inst.Times = append(inst.Times, math.Inf(1))
					continue
				}
				res, err := v.Run(p, dev)
				if err != nil {
					inst.Times = append(inst.Times, math.Inf(1))
					continue
				}
				inst.Times = append(inst.Times, res.Seconds)
			}
			out = append(out, inst)
		}
		return out, nil
	}
	suite := &autotuner.Suite{
		Name:           "SpMV",
		VariantNames:   sparse.VariantNames(),
		FeatureNames:   sparse.FeatureNames(),
		DefaultVariant: 0,
	}
	var err error
	if suite.Train, err = load(spec.TrainGlob); err != nil {
		return nil, err
	}
	if spec.TestGlob != "" {
		if suite.Test, err = load(spec.TestGlob); err != nil {
			return nil, err
		}
	}
	return suite, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nitro-tune:", err)
	os.Exit(1)
}
