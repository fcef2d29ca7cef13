package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"nitro/internal/autotuner"
	"nitro/internal/gpusim"
)

// smallCfg keeps suite construction fast in unit tests.
func smallCfg() Config {
	return Config{Seed: 7, Scale: 0.15, TrainCount: 14, TestCount: 21}
}

func checkSuite(t *testing.T, s *autotuner.Suite, wantVariants int) {
	t.Helper()
	if len(s.VariantNames) != wantVariants {
		t.Fatalf("%s: %d variants, want %d", s.Name, len(s.VariantNames), wantVariants)
	}
	if len(s.Train) != 14 || len(s.Test) != 21 {
		t.Fatalf("%s: corpus sizes %d/%d", s.Name, len(s.Train), len(s.Test))
	}
	if s.DefaultVariant < 0 || s.DefaultVariant >= wantVariants {
		t.Fatalf("%s: default variant %d out of range", s.Name, s.DefaultVariant)
	}
	labels := map[int]int{}
	for _, set := range [][]autotuner.Instance{s.Train, s.Test} {
		for _, in := range set {
			if len(in.Features) != len(s.FeatureNames) {
				t.Fatalf("%s: instance %s has %d features, want %d", s.Name, in.ID, len(in.Features), len(s.FeatureNames))
			}
			if len(in.Times) != wantVariants {
				t.Fatalf("%s: instance %s has %d times", s.Name, in.ID, len(in.Times))
			}
			if len(in.FeatureCosts) != len(in.Features) {
				t.Fatalf("%s: instance %s feature costs misaligned", s.Name, in.ID)
			}
			for _, f := range in.Features {
				if math.IsNaN(f) {
					t.Fatalf("%s: NaN feature in %s", s.Name, in.ID)
				}
			}
			for _, tm := range in.Times {
				if tm <= 0 && !math.IsInf(tm, 1) {
					t.Fatalf("%s: non-positive time in %s", s.Name, in.ID)
				}
			}
			if b, _ := in.Best(); b >= 0 {
				labels[b]++
			}
		}
	}
	if len(labels) < 2 {
		t.Errorf("%s: only %d distinct best-variant labels — corpus not diverse: %v", s.Name, len(labels), labels)
	}
	// The default variant is the deployment fallback: it must be feasible
	// on the large majority of feasible training instances (hard solver
	// systems may defeat even the fallback, as in the paper).
	feasible, defOK := 0, 0
	for _, in := range s.Train {
		if b, _ := in.Best(); b < 0 {
			continue
		}
		feasible++
		if !math.IsInf(in.Times[s.DefaultVariant], 1) {
			defOK++
		}
	}
	if feasible > 0 && float64(defOK)/float64(feasible) < 0.8 {
		t.Errorf("%s: default variant feasible on only %d of %d instances", s.Name, defOK, feasible)
	}
}

func TestSpMVSuite(t *testing.T) {
	s, err := SpMV(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	checkSuite(t, s, 6)
}

func TestSolverSuite(t *testing.T) {
	s, err := Solver(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	checkSuite(t, s, 6)
	// The corpus must include systems where some variant fails to converge
	// (the paper's at-risk instances) — the hard group guarantees it.
	atRisk := 0
	for _, in := range s.Test {
		for _, tm := range in.Times {
			if math.IsInf(tm, 1) {
				atRisk++
				break
			}
		}
	}
	if atRisk == 0 {
		t.Error("solver corpus has no instance with a failing variant")
	}
}

func TestBFSSuite(t *testing.T) {
	s, err := BFS(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	checkSuite(t, s, 6)
	hybrid, err := BFSHybridTimes(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	if len(hybrid) != len(s.Test) {
		t.Fatalf("hybrid times %d, test %d", len(hybrid), len(s.Test))
	}
	// Hybrid adapts per level, so it may edge out the best *fixed* variant
	// on individual graphs, but on average it must trail the oracle (the
	// paper puts it at ~88% of best) and never win by a large margin.
	var ratioSum float64
	n := 0
	for i, in := range s.Test {
		b, bestT := in.Best()
		if b < 0 {
			continue
		}
		if hybrid[i] < bestT*0.8 {
			t.Errorf("hybrid beats oracle by >25%% on %s: %v vs %v", in.ID, hybrid[i], bestT)
		}
		ratioSum += bestT / hybrid[i]
		n++
	}
	if n > 0 && ratioSum/float64(n) > 1.0 {
		t.Errorf("hybrid better than oracle on average (%.3f) — baseline too strong", ratioSum/float64(n))
	}
}

func TestHistogramSuite(t *testing.T) {
	s, err := Histogram(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	checkSuite(t, s, 6)
}

func TestSortSuite(t *testing.T) {
	s, err := Sort(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	checkSuite(t, s, 3)
}

func TestSuitesDeterministic(t *testing.T) {
	cfg := smallCfg()
	a, err := Sort(cfg, gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sort(cfg, gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Test {
		for j := range a.Test[i].Times {
			if a.Test[i].Times[j] != b.Test[i].Times[j] {
				t.Fatalf("suite not deterministic at instance %d variant %d", i, j)
			}
		}
	}
}

// TestSuitesParallelismInvariant asserts the two-phase builders' guarantee:
// corpora are bit-identical at every Parallelism setting, because instance
// generation consumes the seeded RNG serially and only the RNG-free variant
// labelling fans out over workers.
func TestSuitesParallelismInvariant(t *testing.T) {
	for _, b := range Builders() {
		serial, parallel := smallCfg(), smallCfg()
		serial.Parallelism = 1
		parallel.Parallelism = 4
		s1, err := b.Build(serial, gpusim.Fermi())
		if err != nil {
			t.Fatalf("%s serial: %v", b.Name, err)
		}
		s4, err := b.Build(parallel, gpusim.Fermi())
		if err != nil {
			t.Fatalf("%s parallel: %v", b.Name, err)
		}
		if !reflect.DeepEqual(s1, s4) {
			t.Errorf("%s: suite differs between Parallelism 1 and 4", b.Name)
		}
	}
}

func TestConfigNorm(t *testing.T) {
	c := Config{}.Norm()
	if c.Seed != 42 || c.Scale != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if got := (Config{Scale: 0.5}).Norm().scaled(100, 10); got != 50 {
		t.Errorf("scaled = %d", got)
	}
	if got := (Config{Scale: 0.01}).Norm().scaled(100, 10); got != 10 {
		t.Errorf("floor = %d", got)
	}
	tr, te := Config{TrainCount: 5}.Norm().counts(54, 100)
	if tr != 5 || te != 100 {
		t.Errorf("counts override wrong: %d %d", tr, te)
	}
}

func TestBuildersComplete(t *testing.T) {
	bs := Builders()
	if len(bs) != 5 {
		t.Fatalf("want 5 builders, got %d", len(bs))
	}
	names := []string{"SpMV", "Solvers", "BFS", "Histogram", "Sort"}
	for i, b := range bs {
		if b.Name != names[i] {
			t.Errorf("builder %d = %s, want %s", i, b.Name, names[i])
		}
	}
}

func TestTrainOnEachSuite(t *testing.T) {
	// End-to-end sanity: every suite must be learnable well above chance.
	suites, err := All(smallCfg(), gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		model, rep, err := autotuner.Train(s.Train, autotuner.TrainOptions{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if rep.TrainAccuracy < 0.5 {
			t.Errorf("%s: train accuracy %v", s.Name, rep.TrainAccuracy)
		}
		eval := autotuner.Evaluate(model, s, s.Test)
		if eval.MeanPerf < 0.6 {
			t.Errorf("%s: tiny-corpus mean perf %v — suite may be unlearnable", s.Name, eval.MeanPerf)
		}
	}
}

func TestExtendedSuites(t *testing.T) {
	cfg := smallCfg()
	dev := gpusim.Fermi()
	spmv, err := SpMVExtended(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(spmv.VariantNames) != 8 {
		t.Fatalf("SpMV extended variants = %v", spmv.VariantNames)
	}
	checkSuite(t, spmv, 8)
	solv, err := SolverExtended(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	if len(solv.VariantNames) != 9 {
		t.Fatalf("Solver extended variants = %v", solv.VariantNames)
	}
	checkSuite(t, solv, 9)

	// The extension sets prepend the base variants, so base suites are
	// exact prefixes: times of shared variants must agree bit-for-bit.
	base, err := SpMV(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Test {
		for v := range base.Test[i].Times {
			if base.Test[i].Times[v] != spmv.Test[i].Times[v] {
				t.Fatalf("extended suite changed base variant time at instance %d variant %d", i, v)
			}
		}
	}
}

func TestKeplerSuiteDiffers(t *testing.T) {
	cfg := smallCfg()
	fermi, err := SpMV(cfg, gpusim.Fermi())
	if err != nil {
		t.Fatal(err)
	}
	kepler, err := SpMV(cfg, gpusim.Kepler())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range fermi.Test {
		for v := range fermi.Test[i].Times {
			if fermi.Test[i].Times[v] != kepler.Test[i].Times[v] {
				same = false
			}
		}
		for j, f := range fermi.Test[i].Features {
			if kepler.Test[i].Features[j] != f {
				t.Fatal("features must be device-independent")
			}
		}
	}
	if same {
		t.Error("Kepler and Fermi produced identical cost surfaces")
	}
}

// labelsDigest hashes a suite's instance IDs and the bits of the float
// slices fields picks from each instance, train set first.
func labelsDigest(s *autotuner.Suite, fields func(autotuner.Instance) [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, set := range [][]autotuner.Instance{s.Train, s.Test} {
		for _, in := range set {
			h.Write([]byte(in.ID))
			for _, vs := range fields(in) {
				for _, v := range vs {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sortLabelsDigest hashes a Sort suite's instance IDs and the bits of every
// feature and label time, train set first.
func sortLabelsDigest(s *autotuner.Suite) string {
	return labelsDigest(s, func(in autotuner.Instance) [][]float64 { return [][]float64{in.Features, in.Times} })
}

// TestSortLabelsGolden pins every Sort label bit for bit: pricing variants
// from their cost models must give exactly the times that running them gave,
// serially and across workers.
func TestSortLabelsGolden(t *testing.T) {
	const want = "fed4a5907bf8d33d58b58bf9f4c1918101ba58cb05552dc01617467fdbdf7ab9"
	for _, par := range []int{1, 0} {
		s, err := Sort(Config{Seed: 9, Scale: 0.05, Parallelism: par}, gpusim.Fermi())
		if err != nil {
			t.Fatal(err)
		}
		if got := sortLabelsDigest(s); got != want {
			t.Errorf("Parallelism %d: Sort label digest = %s, want %s", par, got, want)
		}
	}
}

// TestSuiteLabelsGolden pins every label of the other builders bit for bit:
// IDs, features, feature costs and times, serially and across workers. The
// labelling path prices variants from cost models and counts structure
// instead of building it; none of that may move a label.
func TestSuiteLabelsGolden(t *testing.T) {
	want := map[string]string{
		"SpMV":      "6ab8b74fed8646dce0f0a0c6cc40be99540c116d0872f13e6545ee773357eb42",
		"SpMV+ext":  "c10133cc1885e5c032fc571fef79b5f91713e69bc5c44bc1f53ac0bc31e7e4cb",
		"Solvers":   "476702c2117a4a68d1c96f06f83392508f71f7e7bb78a0400a5438f307c403f1",
		"BFS":       "5ea8379f960fe0b95819e56383e4ffc6d59d32d0fc8600d486b89ab334e624a9",
		"Histogram": "5865d837700dca13f6365e88f317cfb34fb7a601c9d48e1be8dbdea6db3c6833",
	}
	builders := []SuiteBuilder{
		{Name: "SpMV", Build: SpMV},
		{Name: "SpMV+ext", Build: SpMVExtended},
		{Name: "Solvers", Build: Solver},
		{Name: "BFS", Build: BFS},
		{Name: "Histogram", Build: Histogram},
	}
	all := func(in autotuner.Instance) [][]float64 {
		return [][]float64{in.Features, in.FeatureCosts, in.Times}
	}
	for _, b := range builders {
		for _, par := range []int{1, 0} {
			s, err := b.Build(Config{Seed: 9, Scale: 0.05, Parallelism: par}, gpusim.Fermi())
			if err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			if got := labelsDigest(s, all); got != want[b.Name] {
				t.Errorf("Parallelism %d: %s label digest = %s, want %s", par, b.Name, got, want[b.Name])
			}
		}
	}
}
