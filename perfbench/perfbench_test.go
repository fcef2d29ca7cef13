package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"testing"
)

var workloadNames = []string{"dispatch_hot", "adapt_drift", "fleet_rollout"}

func tinyRun(t *testing.T, workload string, trace, corrupt bool) (result, *report) {
	t.Helper()
	o := &options{workload: workload, seed: 3, seconds: 1, trace: trace, tiny: true, corrupt: corrupt, out: t.TempDir()}
	res, rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s (trace %v): %v", workload, trace, err)
	}
	return res, rep
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks the result: correct, with every metric carrying its
// unit, every end-to-end metric a sample count, and every per-layer metric
// measured on at least one workload.
func TestEveryMetricEmitted(t *testing.T) {
	layerSamples := map[string]int{}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, rep := tinyRun(t, w, trace, false)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (trace %v): correct=%v attempted=%d failed=%d %v",
					w, trace, res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s (trace %v): %d metrics, want %d", w, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok:
					t.Errorf("%s (trace %v): %s missing", w, trace, s.name)
				case m.Unit != s.unit:
					t.Errorf("%s: %s unit %q, want %q", w, s.name, m.Unit, s.unit)
				case !trace && (m.N == 0 || m.Value == 0):
					t.Errorf("%s: end-to-end %s = %v with %d samples", w, s.name, m.Value, m.N)
				}
				layerSamples[s.name] += m.N
			}
		}
	}
	for _, s := range perLayer {
		if layerSamples[s.name] == 0 {
			t.Errorf("per-layer %s measured on no workload", s.name)
		}
	}
}

// TestCorruptReferenceFails perturbs one reference value per workload (an
// expected served variant, or an expected cost) and requires the output
// checks to catch it.
func TestCorruptReferenceFails(t *testing.T) {
	for _, w := range workloadNames {
		res, _ := tinyRun(t, w, false, true)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference passed the checks (attempted %d, failed %d)", w, res.Attempted, res.Failed)
		}
	}
}

// TestUnswappedPhaseFails freezes adapt_drift's cost tables, so phases do
// not drift and few swap (a retrain can still improve a weak tiny model).
// Every phase without a swap must count as a failed op while its outputs
// stay correct, and every phase must add its duration to adapt_ms, capped
// when it did not swap.
func TestUnswappedPhaseFails(t *testing.T) {
	o := &options{workload: "adapt_drift", seed: 3, seconds: 1, tiny: true, freeze: true, out: t.TempDir()}
	res, rep, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	unswapped := rep.counts["online.phases_unswapped"]
	if !res.Correct || unswapped == 0 || int64(res.Failed) != unswapped {
		t.Errorf("frozen costs: correct=%v failed=%d unswapped=%d of %d phases, want every unswapped phase failed with correct outputs",
			res.Correct, res.Failed, unswapped, res.Attempted)
	}
	if m := res.Metrics["adapt_ms_p50"]; m.N != res.Attempted || m.Value <= 0 {
		t.Errorf("adapt_ms_p50 = %v over %d phases, want one duration per phase", m.Value, m.N)
	}
}

// TestCountsRepeat checks that one seed reproduces every deterministic
// count exactly.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		_, a := tinyRun(t, w, false, false)
		_, b := tinyRun(t, w, false, false)
		if !maps.Equal(a.counts, b.counts) {
			t.Errorf("%s: counts differ between runs of one seed:\n%v\n%v", w, a.counts, b.counts)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s, program %s/%s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not run by the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
}
