package experiments

import (
	"strings"
	"testing"

	"nitro/internal/datasets"
	"nitro/internal/gpusim"
)

func TestExtensionExperiment(t *testing.T) {
	_, opts, dev := buildSmall(t)
	rows, err := Extension(opts, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want SpMV, Solvers and BFS rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.OracleSpeedup < 0.999 {
			t.Errorf("%s: extended oracle (%v) should never be slower than base oracle", r.Benchmark, r.OracleSpeedup)
		}
		if r.BasePerf <= 0 || r.ExtPerf <= 0 {
			t.Errorf("%s: missing perf numbers: %+v", r.Benchmark, r)
		}
		if len(r.NewVariantNames) == 0 {
			t.Errorf("%s: no new variants recorded", r.Benchmark)
		}
	}
	// The SpMV corpus contains power-law matrices where COO/HYB win, so the
	// extended oracle must strictly improve there.
	if rows[0].OracleSpeedup <= 1.001 {
		t.Errorf("SpMV extended oracle speedup %v — COO/HYB never won?", rows[0].OracleSpeedup)
	}
	if s := FormatExtension(rows); !strings.Contains(s, "COO") || !strings.Contains(s, "GMRES") {
		t.Error("format missing variant names")
	}
}

func TestPortabilityExperiment(t *testing.T) {
	_, opts, dev := buildSmall(t)
	res, err := Portability(opts, dev, gpusim.Kepler())
	if err != nil {
		t.Fatal(err)
	}
	if res.StalePerf <= 0 || res.NativePerf <= 0 {
		t.Fatalf("missing perf: %+v", res)
	}
	if res.NativePerf+0.05 < res.StalePerf {
		t.Errorf("native model (%v) should not lose clearly to the stale one (%v)", res.NativePerf, res.StalePerf)
	}
	if res.LabelShift < 0 || res.LabelShift > 1 {
		t.Errorf("label shift out of range: %v", res.LabelShift)
	}
	if s := FormatPortability(res); !strings.Contains(s, "K20c") {
		t.Error("format missing device name")
	}
}

func TestPortabilitySameDeviceIsNoop(t *testing.T) {
	_, opts, dev := buildSmall(t)
	res, err := Portability(opts, dev, dev)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelShift != 0 {
		t.Errorf("same device must not shift labels: %v", res.LabelShift)
	}
	if res.StalePerf != res.NativePerf {
		t.Errorf("same device must give identical perfs: %v vs %v", res.StalePerf, res.NativePerf)
	}
}

func TestCSVExports(t *testing.T) {
	suites, opts, dev := buildSmall(t)
	var buf strings.Builder

	rows5, err := Fig5(suites[:2], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig5CSV(&buf, rows5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "benchmark,variant,perf_vs_best") {
		t.Error("fig5 CSV header missing")
	}
	if !strings.Contains(buf.String(), "Nitro") {
		t.Error("fig5 CSV missing Nitro row")
	}

	buf.Reset()
	rows6, err := Fig6(suites, opts, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig6CSV(&buf, rows6); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 6 { // header + 5 rows
		t.Errorf("fig6 CSV has %d lines, want 6", got)
	}

	buf.Reset()
	curves, err := Fig7(suites[:1], opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig7CSV(&buf, curves); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "iteration") {
		t.Error("fig7 CSV header missing")
	}

	buf.Reset()
	rows8, err := Fig8(suites[:1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFig8CSV(&buf, rows8); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cum_cost_frac") {
		t.Error("fig8 CSV header missing")
	}

	buf.Reset()
	if err := WriteSetupCSV(&buf, Setup(suites)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "num_variants") {
		t.Error("setup CSV header missing")
	}
	if CSVName("fig5") != "nitro_fig5.csv" {
		t.Error("CSVName wrong")
	}
}

func TestNoiseRobustness(t *testing.T) {
	suites, opts, _ := buildSmall(t)
	rows, err := NoiseRobustness(suites[:2], opts, []float64{0, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.MeanPerf) != 2 || len(r.LabelFlips) != 2 {
			t.Fatalf("%s: incomplete row %+v", r.Benchmark, r)
		}
		if r.LabelFlips[0] != 0 {
			t.Errorf("%s: sigma=0 flipped labels (%v)", r.Benchmark, r.LabelFlips[0])
		}
		if r.LabelFlips[1] <= 0 {
			t.Errorf("%s: sigma=0.3 flipped no labels", r.Benchmark)
		}
		// Graceful degradation: heavy noise shouldn't collapse below 50%.
		if r.MeanPerf[1] < 0.5 {
			t.Errorf("%s: perf collapsed to %v under noise", r.Benchmark, r.MeanPerf[1])
		}
	}
	if s := FormatNoise(rows); !strings.Contains(s, "sigma") {
		t.Error("format missing sigma header")
	}
}

// TestHeadlineModerate asserts the paper's abstract claim — Nitro above 93%
// of exhaustive search on every benchmark — on paper-sized corpora at
// reduced instance scale. Skipped under -short.
func TestHeadlineModerate(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale headline check skipped in -short mode")
	}
	opts := Options{Cfg: datasets.Config{Seed: 42, Scale: 0.3}}
	dev := gpusim.Fermi()
	suites, err := BuildSuites(opts, dev)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Headline(suites, opts, dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range h.Rows {
		if r.MeanPerf < 0.90 {
			t.Errorf("%s: %0.2f%% of exhaustive search — below the reproduction bar", r.Benchmark, 100*r.MeanPerf)
		}
	}
	if h.MinPerf < 0.90 || h.AvgPerf < 0.93 {
		t.Errorf("headline missed: avg %.2f%% min %.2f%% (paper: >93%%)", 100*h.AvgPerf, 100*h.MinPerf)
	}
	// Hybrid comparison shape: Nitro above Hybrid, Hybrid clearly below 1.
	for _, r := range h.Rows {
		if r.Benchmark == "BFS" {
			if r.NitroOverHybrid < 1.0 {
				t.Errorf("Nitro (%vx) should beat Hybrid", r.NitroOverHybrid)
			}
			if r.HybridPerf > 0.97 {
				t.Errorf("Hybrid (%v) should trail the oracle visibly", r.HybridPerf)
			}
		}
	}
}
