package experiments

import (
	"strings"
	"testing"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
)

// smallOpts keeps experiment tests fast: tiny corpora, no grid search.
func smallOpts() Options {
	return Options{Cfg: datasets.Config{Seed: 5, Scale: 0.12, TrainCount: 18, TestCount: 24}}
}

func buildSmall(t *testing.T) ([]*autotuner.Suite, Options, *gpusim.Device) {
	t.Helper()
	dev := gpusim.Fermi()
	opts := smallOpts()
	suites, err := BuildSuites(opts, dev)
	if err != nil {
		t.Fatal(err)
	}
	return suites, opts, dev
}

func TestSetupTable(t *testing.T) {
	suites, _, _ := buildSmall(t)
	rows := Setup(suites)
	if len(rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(rows))
	}
	text := FormatSetup(rows)
	for _, want := range []string{"SpMV", "Solvers", "BFS", "Histogram", "Sort", "CSR-Vec", "CG-Jacobi"} {
		if !strings.Contains(text, want) {
			t.Errorf("setup table missing %q", want)
		}
	}
}

func TestFig5(t *testing.T) {
	suites, opts, _ := buildSmall(t)
	rows, err := Fig5(suites, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("want 5 rows")
	}
	for _, r := range rows {
		if len(r.VariantPerf) != len(r.VariantNames) {
			t.Fatalf("%s: perf/name mismatch", r.Benchmark)
		}
		// Nitro must beat or match every individual variant on average
		// (within small-corpus noise).
		for i, p := range r.VariantPerf {
			if p > r.NitroPerf+0.08 {
				t.Errorf("%s: variant %s (%.3f) clearly beats Nitro (%.3f) on average",
					r.Benchmark, r.VariantNames[i], p, r.NitroPerf)
			}
		}
	}
	if s := FormatFig5(rows); !strings.Contains(s, "Nitro-tuned") {
		t.Error("Fig5 format missing Nitro bar")
	}
}

func TestFig6AndHeadline(t *testing.T) {
	suites, opts, dev := buildSmall(t)
	h, err := Headline(suites, opts, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rows) != 5 {
		t.Fatalf("want 5 rows")
	}
	for _, r := range h.Rows {
		if r.MeanPerf < 0.6 || r.MeanPerf > 1.0001 {
			t.Errorf("%s: mean perf %v out of plausible range", r.Benchmark, r.MeanPerf)
		}
		if r.Benchmark == "BFS" {
			if r.HybridPerf <= 0 {
				t.Error("BFS row missing hybrid comparison")
			}
			if r.NitroOverHybrid < 0.95 {
				t.Errorf("Nitro should be at least on par with Hybrid, got %vx", r.NitroOverHybrid)
			}
		}
	}
	text := FormatHeadline(h)
	for _, want := range []string{"Headline", "Hybrid", "paper"} {
		if !strings.Contains(text, want) {
			t.Errorf("headline text missing %q", want)
		}
	}
}

func TestFig7(t *testing.T) {
	suites, opts, _ := buildSmall(t)
	curves, err := Fig7(suites[:2], opts, 8) // two suites keep it fast
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range curves {
		if len(c.Curve) < 2 {
			t.Fatalf("%s: curve too short: %v", c.Benchmark, c.Curve)
		}
		if c.FullPerf <= 0 {
			t.Fatalf("%s: no full-training reference", c.Benchmark)
		}
		final := c.Curve[len(c.Curve)-1]
		if final < 0.5*c.FullPerf {
			t.Errorf("%s: incremental end point %v far below full %v", c.Benchmark, final, c.FullPerf)
		}
	}
	if s := FormatFig7(curves); !strings.Contains(s, "iter") {
		t.Error("Fig7 format missing iterations")
	}
}

func TestFig8(t *testing.T) {
	suites, opts, _ := buildSmall(t)
	rows, err := Fig8(suites, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.PrefixPerf) != len(r.FeatureOrder) {
			t.Fatalf("%s: prefix/feature mismatch", r.Benchmark)
		}
		// Cost fractions must be non-decreasing.
		for k := 1; k < len(r.PrefixCostFrac); k++ {
			if r.PrefixCostFrac[k] < r.PrefixCostFrac[k-1]-1e-12 {
				t.Errorf("%s: cumulative cost decreased", r.Benchmark)
			}
		}
		if m := r.MinimalFeatures(0.95); m < 1 || m > len(r.FeatureOrder) {
			t.Errorf("%s: minimal features %d out of range", r.Benchmark, m)
		}
	}
	// Cheap O(1) features must come first for BFS (AvgOutDeg et al. before
	// the O(V) degree statistics).
	for _, r := range rows {
		if r.Benchmark == "BFS" {
			if r.FeatureOrder[len(r.FeatureOrder)-1] == "AvgOutDeg" {
				t.Error("BFS: AvgOutDeg should be among the cheapest features")
			}
		}
	}
	if s := FormatFig8(rows); !strings.Contains(s, "feature cost") {
		t.Error("Fig8 format missing cost column")
	}
}

// Norm installs the coarse grid only where grid search is on, and leaves a
// caller's own grid alone.
func TestOptionsNorm(t *testing.T) {
	o := Options{Train: autotuner.TrainOptions{GridSearch: true}}.Norm()
	if !o.Train.GridSearch || len(o.Train.Grid.CValues) == 0 {
		t.Errorf("grid search on: %+v, want the default grid", o.Train)
	}
	if off := (Options{}).Norm(); off.Train.GridSearch || len(off.Train.Grid.CValues) != 0 {
		t.Errorf("grid search off: %+v, want no grid", off.Train)
	}
	own := Options{Train: autotuner.TrainOptions{GridSearch: true, Grid: ml.GridConfig{CValues: []float64{3}}}}.Norm()
	if len(own.Train.Grid.CValues) != 1 || own.Train.Grid.CValues[0] != 3 {
		t.Errorf("caller's grid replaced: %+v", own.Train.Grid)
	}
}
