package online

import (
	"encoding/json"
	"strings"
	"testing"

	"nitro/internal/obs"
)

// TestEngineCollectorExposition registers a driven engine's Collector on an
// obs.Registry and checks the Prometheus exposition: valid text format, the
// full nitro_adapt_* metric set, the function label, and values that match
// the engine's Stats snapshot.
func TestEngineCollectorExposition(t *testing.T) {
	eng := driveDriftScenario(t, 42)
	defer eng.Close()

	reg := obs.NewRegistry()
	reg.Register(eng.Collector("stencil"))
	text, err := reg.PrometheusText()
	if err != nil {
		t.Fatalf("PrometheusText: %v", err)
	}
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, text)
	}

	for _, name := range []string{
		"nitro_adapt_calls_total",
		"nitro_adapt_sampled_total",
		"nitro_adapt_explored_total",
		"nitro_adapt_explore_failures_total",
		"nitro_adapt_mismatches_total",
		"nitro_adapt_windows_total",
		"nitro_adapt_drifts_total",
		"nitro_adapt_retrains_total",
		"nitro_adapt_retrains_deferred_total",
		"nitro_adapt_swaps_total",
		"nitro_adapt_rollbacks_total",
		"nitro_adapt_explore_seconds",
		"nitro_adapt_mismatch_rate",
		"nitro_adapt_regret",
		"nitro_adapt_state",
		"nitro_adapt_model_version",
		"nitro_adapt_paused",
	} {
		if !strings.Contains(text, name+`{function="stencil"}`) {
			t.Errorf("exposition missing %s{function=\"stencil\"}:\n%s", name, text)
		}
	}

	s := eng.Stats()
	for _, want := range []string{
		`nitro_adapt_drifts_total{function="stencil"} 1`,
		`nitro_adapt_swaps_total{function="stencil"} 1`,
		`nitro_adapt_model_version{function="stencil"} 2`,
		`nitro_adapt_state{function="stencil"} 0`, // recovered: healthy
		`nitro_adapt_paused{function="stencil"} 0`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q (stats: %+v)\n%s", want, s, text)
		}
	}
}

// TestEngineCollectorPausedGauge: pausing flips the gauge to 1 and the state
// gauge keeps reporting the drift state machine, not the pause flag.
func TestEngineCollectorPausedGauge(t *testing.T) {
	_, cv, _ := fixture(t)
	eng, err := Attach(cv, testPolicy(7))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	eng.Pause()

	reg := obs.NewRegistry()
	reg.Register(eng.Collector("stencil"))
	text, err := reg.PrometheusText()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `nitro_adapt_paused{function="stencil"} 1`) {
		t.Errorf("paused gauge not 1:\n%s", text)
	}
}

// TestRegisterVars puts the engine's stats and timeline tail on the debug
// registry and checks the JSON view: stable snake_case stats keys, the tail
// bound honoured, and events serialized through Event.MarshalJSON.
func TestRegisterVars(t *testing.T) {
	eng := driveDriftScenario(t, 42)
	defer eng.Close()
	all := eng.Events()
	if len(all) < 4 {
		t.Fatalf("scenario produced only %d events", len(all))
	}

	reg := obs.NewRegistry()
	eng.RegisterVars(reg, "stencil", 3)
	blob, err := reg.VarsJSON()
	if err != nil {
		t.Fatalf("VarsJSON: %v", err)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(blob, &vars); err != nil {
		t.Fatalf("vars not a JSON object: %v\n%s", err, blob)
	}

	var stats map[string]any
	if err := json.Unmarshal(vars["adapt_stats:stencil"], &stats); err != nil {
		t.Fatalf("adapt_stats: %v", err)
	}
	for _, key := range []string{"calls", "sampled", "drifts", "swaps", "model_version", "state"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("adapt_stats missing %q: %v", key, stats)
		}
	}
	if stats["state"] != "healthy" {
		t.Errorf("state = %v, want healthy", stats["state"])
	}

	var evs []Event
	if err := json.Unmarshal(vars["adapt_events:stencil"], &evs); err != nil {
		t.Fatalf("adapt_events: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("tail = %d events, want 3", len(evs))
	}
	if want := all[len(all)-3:]; evs[0] != want[0] || evs[1] != want[1] || evs[2] != want[2] {
		t.Errorf("tail = %+v, want %+v", evs, want)
	}

	// tail <= 0 exposes the full timeline.
	reg2 := obs.NewRegistry()
	eng.RegisterVars(reg2, "stencil", 0)
	blob, err = reg2.VarsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &vars); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(vars["adapt_events:stencil"], &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(all) {
		t.Errorf("full timeline = %d events, want %d", len(evs), len(all))
	}
}
