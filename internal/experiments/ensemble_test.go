package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEnsembleStudy(t *testing.T) {
	suites, opts, _ := buildSmall(t)
	rep, err := EnsembleStudy(suites[:2], opts, 0) // two suites, no timing: fast
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rep.Rows))
	}
	for _, r := range rep.Rows {
		if r.SVMPerf <= 0 || r.EnsemblePerf <= 0 {
			t.Errorf("%s: non-positive mean perf (svm %v, ensemble %v)", r.Benchmark, r.SVMPerf, r.EnsemblePerf)
		}
		if r.MeanConfidence <= 0 || r.MeanConfidence > 1 {
			t.Errorf("%s: ensemble mean confidence %v out of (0, 1]", r.Benchmark, r.MeanConfidence)
		}
		if r.SVMPredictNs != 0 || r.EnsemblePredictNs != 0 {
			t.Errorf("%s: timing reported with predictCalls=0", r.Benchmark)
		}
	}

	if text := FormatEnsemble(rep); !strings.Contains(text, "Ensemble committee") {
		t.Errorf("format missing the committee table:\n%s", text)
	}
	var buf bytes.Buffer
	if err := WriteEnsembleJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var round EnsembleReport
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("BENCH_ensemble.json does not round-trip: %v", err)
	}
	if len(round.Rows) != len(rep.Rows) {
		t.Error("JSON round-trip lost rows")
	}
}
