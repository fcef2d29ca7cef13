package nitro_test

// Public-facade coverage for the observability layer: decision tracing,
// model explanation, per-variant latency histograms, and the live telemetry
// endpoint — the end-to-end path a deployment would wire up.

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"nitro"
)

// tunedToy builds and tunes the toy fixture so the model-dependent
// observability paths (explanations, traces with scores) are exercised.
func tunedToy(t testing.TB) *nitro.CodeVariant[toy] {
	t.Helper()
	cv := buildToy(t, nitro.DefaultPolicy("toy"))
	if _, err := nitro.NewAutotuner(cv, nitro.TrainOptions{Classifier: "svm", GridSearch: true}).Tune(toyInputs()); err != nil {
		t.Fatal(err)
	}
	return cv
}

// TestPublicAPITracing enables Always-mode tracing through the facade and
// checks the captured decision against the call it explains.
func TestPublicAPITracing(t *testing.T) {
	cv := tunedToy(t)
	tracer := cv.EnableTracing(nitro.TracePolicy{Mode: nitro.TraceAlways})

	var seen []nitro.DecisionTrace
	tracer.SetSink(func(tr nitro.DecisionTrace) { seen = append(seen, tr) })

	_, chosen, err := cv.Call(toy{x: 18})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("captured %d traces, want 1", len(seen))
	}
	tr := seen[0]
	if tr.Chosen != chosen {
		t.Errorf("trace chose %q, call chose %q", tr.Chosen, chosen)
	}
	if tr.Function != "toy" || len(tr.RawFeatures) != 1 || tr.RawFeatures[0] != 18 {
		t.Errorf("trace = %+v", tr)
	}
	if len(tr.Scores) == 0 || len(tr.Ranked) == 0 {
		t.Errorf("trace missing model explanation: %+v", tr)
	}
	if rec := tracer.Recent(10); len(rec) != 1 || rec[0].Chosen != chosen {
		t.Errorf("Recent = %+v", rec)
	}

	cv.DisableTracing()
	if _, _, err := cv.Call(toy{x: 2}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Error("disabled tracer still captured")
	}
}

// TestPublicAPIExplain: Model.Explain through the facade must agree with the
// dispatch decision for the same input.
func TestPublicAPIExplain(t *testing.T) {
	cv := tunedToy(t)
	m, ok := cv.Context().Model("toy")
	if !ok {
		t.Fatal("no model installed")
	}
	ex := m.Explain([]float64{18})
	_, chosen, err := cv.Call(toy{x: 18})
	if err != nil {
		t.Fatal(err)
	}
	if got := cv.VariantNames()[ex.Predicted]; got != chosen {
		t.Errorf("Explain predicted %q, Call chose %q", got, chosen)
	}
	if len(ex.Ranked) == 0 || ex.Ranked[0] != ex.Predicted {
		t.Errorf("ranked order %v inconsistent with predicted %d", ex.Ranked, ex.Predicted)
	}
}

// TestPublicAPIMetricsEndpoint wires the full registry — deployment
// counters, tracer gauges, latency histograms — and scrapes the live
// endpoint over HTTP.
func TestPublicAPIMetricsEndpoint(t *testing.T) {
	cv := tunedToy(t)
	cx := cv.Context()
	cx.EnableLatencyHistograms("toy")
	tracer := cv.EnableTracing(nitro.TracePolicy{Mode: nitro.TraceSampled, SamplePeriod: 2})

	for _, in := range toyInputs() {
		if _, _, err := cv.Call(in); err != nil {
			t.Fatal(err)
		}
	}
	st := cx.Stats("toy")
	if len(st.Latency) == 0 {
		t.Fatal("no latency summaries with histograms enabled")
	}
	for name, s := range st.Latency {
		if s.Count == 0 || s.P50 <= 0 {
			t.Errorf("variant %q summary %+v", name, s)
		}
	}

	reg := nitro.NewMetricsRegistry()
	reg.Register(cx.Collector())
	reg.Register(tracer.Collector("toy"))
	reg.RegisterVar("call_stats:toy", func() any { return cx.Stats("toy") })

	srv, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`nitro_calls_total{function="toy"} 21`,
		`nitro_variant_calls_total{function="toy",variant="low"}`,
		`nitro_variant_value_seconds_bucket{function="toy",variant="high",le="+Inf"}`,
		`nitro_traces_recorded_total{function="toy"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	vars := get("/vars")
	for _, want := range []string{`"call_stats:toy"`, `"per_variant"`, `"latency"`} {
		if !strings.Contains(vars, want) {
			t.Errorf("/vars missing %s:\n%s", want, vars)
		}
	}
	if get("/healthz") != "ok\n" {
		t.Error("/healthz not ok")
	}
}
