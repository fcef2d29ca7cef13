package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"nitro/internal/ml"
	"nitro/internal/obs"
)

// --- decision tracing ------------------------------------------------------

func TestTracingOffRecordsNothing(t *testing.T) {
	cv, _ := threeCV(t, "traceoff", nil)
	if cv.Tracer() != nil {
		t.Fatal("fresh CodeVariant has a tracer installed")
	}
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceOff})
	for i := 0; i < 10; i++ {
		if _, _, err := cv.Call(testInput{X: float64(i % 9)}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Count() != 0 {
		t.Fatalf("TraceOff recorded %d traces", tr.Count())
	}
	cv.DisableTracing()
	if cv.Tracer() != nil {
		t.Fatal("DisableTracing left a tracer installed")
	}
}

func TestTracingAlwaysCapturesDecision(t *testing.T) {
	cv, model := threeCV(t, "tracealways", nil)
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	in := testInput{X: 7}
	v, name, err := cv.Call(in)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 1 {
		t.Fatalf("Count = %d, want 1", tr.Count())
	}
	rec := tr.Recent(1)[0]
	if rec.Function != "tracealways" {
		t.Errorf("Function = %q", rec.Function)
	}
	if len(rec.RawFeatures) != 1 || rec.RawFeatures[0] != 7 {
		t.Errorf("RawFeatures = %v", rec.RawFeatures)
	}
	if rec.ScaledFeatures == nil {
		t.Error("ScaledFeatures missing despite fitted scaler")
	}
	if rec.Predicted != model.Predict([]float64{7}) {
		t.Errorf("Predicted = %d, want %d", rec.Predicted, model.Predict([]float64{7}))
	}
	wantRanked := model.RankedClasses([]float64{7})
	if fmt.Sprint(rec.Ranked) != fmt.Sprint(wantRanked) {
		t.Errorf("Ranked = %v, want %v", rec.Ranked, wantRanked)
	}
	if len(rec.Scores) != 3 || len(rec.Classes) != 3 {
		t.Errorf("Scores/Classes = %v / %v", rec.Scores, rec.Classes)
	}
	if len(rec.PairDecisions) != 3 {
		t.Errorf("PairDecisions = %v, want 3 one-vs-one values", rec.PairDecisions)
	}
	if rec.Chosen != name || rec.Value != v {
		t.Errorf("trace (%q, %v) disagrees with Call (%q, %v)", rec.Chosen, rec.Value, name, v)
	}
	if rec.FellBack || rec.FallbackHops != 0 {
		t.Errorf("unexpected fallback: %+v", rec)
	}
	if rec.WallNanos < 0 || rec.Start.IsZero() {
		t.Errorf("wall-clock fields not captured: %+v", rec)
	}
	// The trace reproduces the exact choice Call made.
	if rec.ChosenIdx != rec.Predicted {
		t.Errorf("ChosenIdx = %d, Predicted = %d (no veto/fault in play)", rec.ChosenIdx, rec.Predicted)
	}
}

func TestTracingCapturesConstraintVeto(t *testing.T) {
	cv, _ := threeCV(t, "tracevetoed", nil)
	// Veto v2 (the model's pick for x=7) for every input.
	if err := cv.AddConstraint("v2", func(testInput) bool { return false }); err != nil {
		t.Fatal(err)
	}
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	_, name, err := cv.Call(testInput{X: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := tr.Recent(1)[0]
	if len(rec.Vetoed) != 1 || rec.Vetoed[0] != "v2" {
		t.Errorf("Vetoed = %v, want [v2]", rec.Vetoed)
	}
	if !rec.FellBack {
		t.Error("veto of the predicted variant did not mark FellBack")
	}
	if rec.Chosen != name {
		t.Errorf("trace chose %q, Call chose %q", rec.Chosen, name)
	}
}

func TestTracingCapturesFallbackHopsUnderFaults(t *testing.T) {
	// v2 (predicted for x=7) always panics: dispatch must hop to the
	// next-ranked variant and the trace must count the hop.
	cv, _ := threeCV(t, "tracehops", map[int]VariantFn[testInput]{
		2: func(testInput) float64 { panic("v2 down") },
	})
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	_, name, err := cv.Call(testInput{X: 7})
	if err != nil {
		t.Fatal(err)
	}
	if name != "v1" {
		t.Fatalf("fallback chose %q, want v1", name)
	}
	rec := tr.Recent(1)[0]
	if rec.FallbackHops != 1 {
		t.Errorf("FallbackHops = %d, want 1", rec.FallbackHops)
	}
	if !rec.FellBack || rec.Chosen != "v1" {
		t.Errorf("trace = %+v, want fellback chosen=v1", rec)
	}
	if rec.Predicted != 2 {
		t.Errorf("Predicted = %d, want the doomed 2", rec.Predicted)
	}
}

func TestTracingCapturesDispatchError(t *testing.T) {
	cx := NewContext()
	cv := New[testInput](cx, DefaultPolicy("traceerr"))
	cv.AddVariant("only", func(testInput) float64 { return 1 })
	if err := cv.AddConstraint("only", func(testInput) bool { return false }); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(Feature[testInput]{Name: "x", Eval: func(in testInput) float64 { return in.X }})
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	_, _, err := cv.Call(testInput{X: 1})
	if !errors.Is(err, ErrAllVariantsVetoed) {
		t.Fatalf("err = %v", err)
	}
	rec := tr.Recent(1)[0]
	if rec.Err == "" || rec.ChosenIdx != -1 {
		t.Errorf("error trace = %+v", rec)
	}
	if !strings.Contains(rec.String(), "error=") {
		t.Errorf("String() = %q, want error form", rec.String())
	}
}

func TestTracingSampledSerialReplayIsByteIdentical(t *testing.T) {
	run := func() string {
		cv, _ := threeCV(t, "tracereplay", nil)
		tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceSampled, SamplePeriod: 3})
		var lines []string
		tr.SetSink(func(d obs.DecisionTrace) { lines = append(lines, d.String()) })
		for i := 0; i < 30; i++ {
			if _, _, err := cv.Call(testInput{X: float64(i % 9)}); err != nil {
				t.Fatal(err)
			}
		}
		return strings.Join(lines, "\n")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("two serial replays produced different trace timelines:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "[trace 000001]") {
		t.Fatalf("timeline missing seq numbers:\n%s", a)
	}
}

// --- latency histograms ----------------------------------------------------

func TestLatencyHistogramsOffByDefault(t *testing.T) {
	cv, _ := threeCV(t, "histoff", nil)
	if _, _, err := cv.Call(testInput{X: 1}); err != nil {
		t.Fatal(err)
	}
	if got := cv.Context().Stats("histoff").Latency; got != nil {
		t.Fatalf("Latency populated without EnableLatencyHistograms: %v", got)
	}
}

func TestLatencyHistogramsAndRegret(t *testing.T) {
	cv, _ := threeCV(t, "histon", map[int]VariantFn[testInput]{
		0: func(testInput) float64 { return 0.001 },
		1: func(testInput) float64 { return 0.002 },
		2: func(testInput) float64 { return 0.004 },
	})
	cx := cv.Context()
	cx.EnableLatencyHistograms("histon")
	for i := 0; i < 30; i++ {
		if _, _, err := cv.Call(testInput{X: float64(i % 9)}); err != nil {
			t.Fatal(err)
		}
	}
	stats := cx.Stats("histon")
	if len(stats.Latency) != 3 {
		t.Fatalf("Latency = %v, want 3 variants", stats.Latency)
	}
	v0, v2 := stats.Latency["v0"], stats.Latency["v2"]
	if v0.Count == 0 || v2.Count == 0 {
		t.Fatalf("missing observations: %+v", stats.Latency)
	}
	if v0.Regret != 0 {
		t.Errorf("best variant regret = %v, want 0", v0.Regret)
	}
	// v2 runs 4x the best variant's value: regret ~3 (bucket resolution).
	if v2.Regret < 2 || v2.Regret > 4 {
		t.Errorf("v2 regret = %v, want ~3", v2.Regret)
	}
	if v0.P50 <= 0 || v0.P99 < v0.P50 {
		t.Errorf("quantiles inconsistent: %+v", v0)
	}
	cx.DisableLatencyHistograms("histon")
	if cx.Stats("histon").Latency != nil {
		t.Error("Latency still populated after disable")
	}
}

// --- Stats zero-value contract (satellite) ---------------------------------

func TestStatsUnregisteredFunctionContract(t *testing.T) {
	cx := NewContext()
	s := cx.Stats("never-registered")
	if s.PerVariant == nil {
		t.Fatal("PerVariant is nil; contract requires a non-nil empty map")
	}
	if len(s.PerVariant) != 0 || s.Calls != 0 || s.Latency != nil {
		t.Fatalf("unregistered stats not zero-valued: %+v", s)
	}
	// Ranging must be safe.
	for range s.PerVariant {
		t.Fatal("empty map yielded an entry")
	}
	// The query must not register the name as a side effect.
	cx.mu.Lock()
	_, leaked := cx.stats["never-registered"]
	cx.mu.Unlock()
	if leaked {
		t.Fatal("Stats registered the function name as a side effect")
	}
}

// --- Collector export ------------------------------------------------------

func TestContextCollectorExposition(t *testing.T) {
	cv, _ := threeCV(t, "export", nil)
	cx := cv.Context()
	cx.EnableLatencyHistograms("export")
	for i := 0; i < 9; i++ {
		if _, _, err := cv.Call(testInput{X: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	reg := obs.NewRegistry()
	reg.Register(cx.Collector())
	text, err := reg.PrometheusText()
	if err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	for _, want := range []string{
		`nitro_calls_total{function="export"} 9`,
		`nitro_variant_calls_total{function="export",variant="v0"}`,
		`nitro_variant_value_seconds_bucket{function="export",variant="v0",le="+Inf"}`,
		`nitro_variant_value_seconds_count{function="export",variant="v0"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Deterministic between scrapes of an idle context.
	text2, _ := reg.PrometheusText()
	if text != text2 {
		t.Error("idle scrapes differ")
	}
}

func TestTracedDispatchMatchesUntraced(t *testing.T) {
	// Identical inputs through a traced and an untraced CodeVariant sharing
	// model shape must produce identical (value, variant) streams.
	run := func(trace bool) string {
		cv, _ := threeCV(t, fmt.Sprintf("parity%v", trace), nil)
		if trace {
			cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
		}
		var b strings.Builder
		for i := 0; i < 27; i++ {
			v, name, err := cv.Call(testInput{X: float64(i % 9)})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%v %s\n", v, name)
		}
		return b.String()
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("tracing changed dispatch results:\n%s---\n%s", a, b)
	}
}

// TestTraceNamesServingModel: a traced call explains the model that
// predicted it. At fraction 1 the canary's v7 challenger serves every call,
// so the trace carries its version, prediction and scores; at fraction 0
// the stable model serves and is the one named.
func TestTraceNamesServingModel(t *testing.T) {
	cv, stable := buildConcurrentCV(t, DefaultPolicy("tracecanary"))
	cx := cv.Context()
	stable.Meta = &ml.ModelMeta{Version: 6}
	if err := cx.SetModel("tracecanary", stable); err != nil {
		t.Fatal(err)
	}
	challenger := singleClassModel(t, 1) // "large" everywhere
	challenger.Meta = &ml.ModelMeta{Version: 7}
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	x := []float64{1} // the stable model picks "small" here

	for _, c := range []struct {
		fraction  float64
		model     *ml.Model
		version   int
		predicted int
		chosen    string
	}{
		{1, challenger, 7, 1, "large"},
		{0, stable, 6, 0, "small"},
	} {
		if err := cx.SetCanary("tracecanary", challenger, c.fraction); err != nil {
			t.Fatal(err)
		}
		if _, name, err := cv.Call(testInput{X: x[0]}); err != nil || name != c.chosen {
			t.Fatalf("fraction %v: Call = (%q, %v), want %q", c.fraction, name, err, c.chosen)
		}
		rec := tr.Recent(1)[0]
		ex := c.model.Explain(x)
		if rec.ModelVersion != c.version || rec.Predicted != c.predicted || rec.Chosen != c.chosen || rec.FellBack {
			t.Errorf("fraction %v: trace %s, want v%d predicting %d and choosing %s", c.fraction, rec, c.version, c.predicted, c.chosen)
		}
		if fmt.Sprint(rec.Scores, rec.Ranked) != fmt.Sprint(ex.Scores, ex.Ranked) {
			t.Errorf("fraction %v: trace scores %v ranked %v, want %v %v", c.fraction, rec.Scores, rec.Ranked, ex.Scores, ex.Ranked)
		}
	}
}

func TestTracerCollectorThroughRegistry(t *testing.T) {
	cv, _ := threeCV(t, "tracermetrics", nil)
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	if _, _, err := cv.Call(testInput{X: 1}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	reg.Register(tr.Collector("tracermetrics"))
	text, err := reg.PrometheusText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `nitro_traces_recorded_total{function="tracermetrics"} 1`) {
		t.Fatalf("missing trace meta-metric:\n%s", text)
	}
}

func TestTraceWallNanosPlausible(t *testing.T) {
	cv, _ := threeCV(t, "tracewall", map[int]VariantFn[testInput]{
		0: func(testInput) float64 { time.Sleep(time.Millisecond); return 0 },
	})
	tr := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})
	if _, _, err := cv.Call(testInput{X: 0}); err != nil {
		t.Fatal(err)
	}
	rec := tr.Recent(1)[0]
	if rec.WallNanos < int64(time.Millisecond) {
		t.Errorf("WallNanos = %d, want >= 1ms (variant slept)", rec.WallNanos)
	}
}
