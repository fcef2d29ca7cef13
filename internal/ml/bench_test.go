package ml

import (
	"testing"
	"time"
)

func BenchmarkSMOBinaryFit(b *testing.B) {
	ds := blobs(200, 2, 4, 1.0, 1)
	var x [][]float64
	var y []float64
	for i := range ds.X {
		x = append(x, ds.X[i])
		if ds.Y[i] == 0 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveBinary(x, y, RBFKernel{Gamma: 0.25}, 4, 1e-3, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMMulticlassFit(b *testing.B) {
	ds := blobs(200, 6, 5, 0.8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewSVM(RBFKernel{Gamma: 0.2}, 4)
		if err := m.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSVMPredict(b *testing.B) {
	train := blobs(200, 6, 5, 0.8, 3)
	m := NewSVM(RBFKernel{Gamma: 0.2}, 4)
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	x := train.X[7]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Predict(x)
	}
}

// gridBenchConfig is the shared workload of the serial/parallel grid-search
// benchmarks: a 28-point grid on a 150-example, 32-feature corpus, shaped
// like the paper's search (many C values sharing few gammas, libSVM-style
// feature counts) so the per-gamma kernel-cache reuse is representative.
func gridBenchConfig(parallelism int) (*Dataset, GridConfig) {
	ds := blobs(150, 3, 32, 1.2, 4)
	return ds, GridConfig{
		CValues:     []float64{0.25, 1, 4, 16, 64, 256, 1024},
		GammaValues: []float64{0.005, 0.02, 0.08, 0.32},
		Folds:       4,
		Parallelism: parallelism,
	}
}

// BenchmarkGridSearchUncached replicates the pre-cache search algorithm —
// one independent CrossValidate per (C, gamma) point, every kernel value
// re-evaluated per fold and per C — as the reference the gamma-keyed kernel
// cache is measured against. It returns the same winner (asserted by
// TestGridSearchMatchesCacheFreeSearch).
func BenchmarkGridSearchUncached(b *testing.B) {
	ds, cfg := gridBenchConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		best := GridSearchResult{Accuracy: -1}
		for _, c := range cfg.CValues {
			for _, g := range cfg.GammaValues {
				acc, err := CrossValidate(func() Classifier { return NewSVM(RBFKernel{Gamma: g}, c) },
					ds, cfg.Folds, cfg.Seed)
				if err != nil {
					b.Fatal(err)
				}
				if acc > best.Accuracy {
					best.Accuracy, best.C, best.Gamma = acc, c, g
				}
			}
		}
		m := NewSVM(RBFKernel{Gamma: best.Gamma}, best.C)
		if err := m.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSearchSerial runs the cross-validated grid search with one
// worker — isolating the gamma-keyed kernel cache's gain over
// BenchmarkGridSearchUncached from the worker-pool gain measured by
// BenchmarkGridSearchParallel.
func BenchmarkGridSearchSerial(b *testing.B) {
	ds, cfg := gridBenchConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GridSearchSVM(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGridSearchParallel fans the same grid over all cores. The
// "speedup" metric is wall-clock vs the pre-optimization (uncached, serial)
// algorithm measured in the same process: the kernel-cache factor applies on
// any machine, the worker-pool factor additionally scales with core count
// (compare ns/op against BenchmarkGridSearchSerial for that component alone).
func BenchmarkGridSearchParallel(b *testing.B) {
	ds, cfg := gridBenchConfig(0)
	start := time.Now()
	for _, c := range cfg.CValues {
		for _, g := range cfg.GammaValues {
			if _, err := CrossValidate(func() Classifier { return NewSVM(RBFKernel{Gamma: g}, c) },
				ds, cfg.Folds, cfg.Seed); err != nil {
				b.Fatal(err)
			}
		}
	}
	baseline := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := GridSearchSVM(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(baseline)/(float64(b.Elapsed())/float64(b.N)), "speedup")
}

func BenchmarkBvSBPoolQuery(b *testing.B) {
	train := blobs(60, 4, 4, 0.8, 5)
	m := NewSVM(RBFKernel{Gamma: 0.25}, 4)
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	pool := blobs(500, 4, 4, 0.8, 6).X
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = (BvSBStrategy{}).Next(m, pool)
	}
}

// BenchmarkModelSerialize times one encode plus decode of a 5-class SVM in
// each artifact form and reports the artifact's size beside the time: json
// is MarshalModel and UnmarshalModel, artifact is EncodeArtifact and the
// install path's DecodeArtifact, ETag check included.
func BenchmarkModelSerialize(b *testing.B) {
	ds := blobs(150, 4, 5, 0.8, 7)
	m := NewSVM(RBFKernel{Gamma: 0.2}, 4)
	if err := m.Fit(ds); err != nil {
		b.Fatal(err)
	}
	var s Scaler
	if err := s.Fit(ds.X); err != nil {
		b.Fatal(err)
	}
	model := &Model{Classifier: m, Scaler: &s}
	for _, form := range []struct {
		name   string
		encode func() ([]byte, string, error)
		decode func(data []byte, etag string) (*Model, error)
	}{
		{"json", func() ([]byte, string, error) {
			data, err := MarshalModel(model)
			return data, "", err
		}, func(data []byte, _ string) (*Model, error) { return UnmarshalModel(data) }},
		{"artifact", func() ([]byte, string, error) { return EncodeArtifact(model) }, DecodeArtifact},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			for i := 0; i < b.N; i++ {
				data, etag, err := form.encode()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := form.decode(data, etag); err != nil {
					b.Fatal(err)
				}
				size = len(data)
			}
			b.ReportMetric(float64(size), "artifact-B")
		})
	}
}

func BenchmarkDecisionTreeFit(b *testing.B) {
	ds := blobs(300, 4, 5, 0.8, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewDecisionTree(8, 1)
		if err := m.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}
