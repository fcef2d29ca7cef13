package sortbench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"nitro/internal/gpusim"
)

func dev() *gpusim.Device { return gpusim.Fermi() }

func isSorted(a []float64) bool { return sort.Float64sAreSorted(a) }

func runAll(t *testing.T, p *Problem) map[string]float64 {
	t.Helper()
	want := append([]float64(nil), p.Keys...)
	sort.Float64s(want)
	out := map[string]float64{}
	for _, v := range Variants() {
		res, err := v.Run(p, dev())
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		if len(res.Sorted) != len(want) {
			t.Fatalf("%s: length changed", v.Name)
		}
		for i := range want {
			if res.Sorted[i] != want[i] {
				t.Fatalf("%s: wrong order at %d: %v vs %v", v.Name, i, res.Sorted[i], want[i])
			}
		}
		if res.Seconds <= 0 || math.IsNaN(res.Seconds) {
			t.Fatalf("%s: bad time %v", v.Name, res.Seconds)
		}
		out[v.Name] = res.Seconds
	}
	return out
}

func bestOf(times map[string]float64) string {
	name, b := "", math.Inf(1)
	for k, v := range times {
		if v < b {
			name, b = k, v
		}
	}
	return name
}

func TestProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil, 32); err == nil {
		t.Error("empty keys accepted")
	}
	if _, err := NewProblem([]float64{1}, 48); err == nil {
		t.Error("bad width accepted")
	}
	p, _ := NewProblem([]float64{1}, 32)
	if p.KeyBytes() != 4 {
		t.Error("KeyBytes wrong")
	}
}

func TestRadixWins32BitRandom(t *testing.T) {
	p, _ := NewProblem(UniformKeys(1<<20, 1), 32)
	times := runAll(t, p)
	if b := bestOf(times); b != "Radix" {
		t.Errorf("32-bit random best = %s (%v), want Radix", b, times)
	}
}

func TestMergeOrLocalityWins64BitRandom(t *testing.T) {
	p, _ := NewProblem(UniformKeys(1<<20, 2), 64)
	times := runAll(t, p)
	if b := bestOf(times); b == "Radix" {
		t.Errorf("64-bit random best = Radix (%v), want a merge-based sort", times)
	}
}

func TestLocalityWinsAlmostSorted(t *testing.T) {
	for _, bits := range []int{32, 64} {
		p, _ := NewProblem(AlmostSortedKeys(1<<20, 0.22, 64, 3), bits)
		times := runAll(t, p)
		if b := bestOf(times); b != "Locality" {
			t.Errorf("%d-bit almost-sorted best = %s (%v), want Locality", bits, b, times)
		}
	}
}

func TestReverseSorted(t *testing.T) {
	p, _ := NewProblem(ReverseSortedKeys(1<<19, 4), 64)
	times := runAll(t, p)
	// Reverse-sorted keys have maximal displacement: locality sort must not
	// beat plain merge sort (it pays the extra detection pass).
	if times["Locality"] < times["Merge"] {
		t.Errorf("locality (%v) should not beat merge (%v) on reverse-sorted keys",
			times["Locality"], times["Merge"])
	}
}

func TestDisplacementProperties(t *testing.T) {
	sorted, _ := NewProblem([]float64{1, 2, 3, 4}, 64)
	if sorted.MaxDisplacement() != 0 {
		t.Errorf("sorted displacement = %d", sorted.MaxDisplacement())
	}
	rev, _ := NewProblem([]float64{4, 3, 2, 1}, 64)
	if rev.MaxDisplacement() != 3 {
		t.Errorf("reverse displacement = %d, want 3", rev.MaxDisplacement())
	}
	almost, _ := NewProblem(AlmostSortedKeys(10000, 0.25, 16, 5), 64)
	// Overlapping swap chains compound, but displacement stays within a
	// small multiple of the window — far below n.
	if d := almost.MaxDisplacement(); d > 128 {
		t.Errorf("window-16 swaps should keep displacement small, got %d", d)
	}
}

func TestFeatures(t *testing.T) {
	p, _ := NewProblem([]float64{1, 2, 1, 3, 0}, 32)
	f := ComputeFeatures(p)
	if f.N != 5 || f.NBits != 32 {
		t.Errorf("size features wrong: %+v", f)
	}
	if f.NAscSeq != 3 { // runs: [1,2],[1,3],[0]
		t.Errorf("NAscSeq = %v, want 3", f.NAscSeq)
	}
	rev, _ := NewProblem(ReverseSortedKeys(100, 6), 64)
	fr := ComputeFeatures(rev)
	if fr.NAscSeq != 100 {
		t.Errorf("reverse-sorted NAscSeq = %v, want 100", fr.NAscSeq)
	}
	if len(f.Vector()) != len(FeatureNames()) {
		t.Error("Vector/FeatureNames mismatch")
	}
}

func TestFloatSortableTransform(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-300, 0, 1e-300, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if !(floatToSortable(vals[i-1]) < floatToSortable(vals[i])) {
			t.Errorf("transform not order-preserving between %v and %v", vals[i-1], vals[i])
		}
	}
	for _, v := range vals {
		if back := sortableToFloat(floatToSortable(v)); back != v {
			t.Errorf("round trip changed %v to %v", v, back)
		}
	}
}

func TestQuickAllVariantsSortCorrectly(t *testing.T) {
	f := func(seed int64) bool {
		keys := NormalKeys(500+int(seed%500+500)%500, seed)
		for _, bits := range []int{32, 64} {
			p, err := NewProblem(keys, bits)
			if err != nil {
				return false
			}
			for _, v := range Variants() {
				res, err := v.Run(p, dev())
				if err != nil || !isSorted(res.Sorted) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickSortIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		keys := UniformKeys(300, seed)
		p, _ := NewProblem(keys, 64)
		res, err := RadixSort(p, dev())
		if err != nil {
			return false
		}
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		for i := range want {
			if want[i] != res.Sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func Test64BitCostsMoreThan32Bit(t *testing.T) {
	keys := UniformKeys(1<<18, 7)
	for _, v := range Variants() {
		p32, _ := NewProblem(keys, 32)
		p64, _ := NewProblem(keys, 64)
		r32, _ := v.Run(p32, dev())
		r64, _ := v.Run(p64, dev())
		if r64.Seconds <= r32.Seconds {
			t.Errorf("%s: 64-bit (%v) should cost more than 32-bit (%v)", v.Name, r64.Seconds, r32.Seconds)
		}
	}
}

func TestRadixCostDoublesWithBits(t *testing.T) {
	keys := UniformKeys(1<<18, 8)
	p32, _ := NewProblem(keys, 32)
	p64, _ := NewProblem(keys, 64)
	r32, _ := RadixSort(p32, dev())
	r64, _ := RadixSort(p64, dev())
	ratio := r64.Seconds / r32.Seconds
	if ratio < 2 || ratio > 6 {
		t.Errorf("radix 64/32 ratio = %v, want roughly 2-6 (passes and bytes double)", ratio)
	}
}

func TestGenerators(t *testing.T) {
	if !isSorted(reverse(ReverseSortedKeys(1000, 9))) {
		t.Error("reverse-sorted generator is not descending")
	}
	a := AlmostSortedKeys(1000, 0.2, 8, 10)
	f := ComputeFeatures(&Problem{Keys: a, Bits: 64})
	u := ComputeFeatures(&Problem{Keys: UniformKeys(1000, 10), Bits: 64})
	if f.NAscSeq >= u.NAscSeq {
		t.Errorf("almost-sorted runs (%v) should be fewer than uniform (%v)", f.NAscSeq, u.NAscSeq)
	}
	if len(ExponentialKeys(10, 1)) != 10 || len(NormalKeys(10, 1)) != 10 {
		t.Error("generator lengths wrong")
	}
}

func reverse(a []float64) []float64 {
	out := make([]float64, len(a))
	for i, v := range a {
		out[len(a)-1-i] = v
	}
	return out
}

func TestSingleKeyAndTinyInputs(t *testing.T) {
	for _, keys := range [][]float64{{3.14}, {2, 1}, {1, 1, 1}} {
		for _, bits := range []int{32, 64} {
			p, err := NewProblem(keys, bits)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range Variants() {
				res, err := v.Run(p, dev())
				if err != nil {
					t.Fatalf("%s on %v: %v", v.Name, keys, err)
				}
				if !isSorted(res.Sorted) {
					t.Fatalf("%s failed on %v", v.Name, keys)
				}
			}
		}
	}
}

func TestDuplicateKeysStable(t *testing.T) {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i % 7)
	}
	p, _ := NewProblem(keys, 64)
	for _, v := range Variants() {
		res, err := v.Run(p, dev())
		if err != nil || !isSorted(res.Sorted) {
			t.Fatalf("%s failed on duplicate-heavy input: %v", v.Name, err)
		}
	}
}

// TestNewProblemRejectsNaN: NaN has no place in a total order, so the
// variants disagreed on where to put it (merge-based sorts first, radix
// last) and MaxDisplacement ranked by the radix order.
func TestNewProblemRejectsNaN(t *testing.T) {
	for _, keys := range [][]float64{{3, math.NaN(), 1, 2, math.NaN(), 0}, {math.NaN()}} {
		if _, err := NewProblem(keys, 64); err == nil {
			t.Errorf("NewProblem(%v) accepted a NaN key", keys)
		}
	}
	if _, err := NewProblem([]float64{math.Inf(1), 0, math.Inf(-1)}, 64); err != nil {
		t.Errorf("infinite keys rejected: %v", err)
	}
}

// TestMaxDisplacementConcurrent runs LocalitySort on one Problem from several
// goroutines, as a variant callback may be under concurrent calls; the
// cached displacement must be race-free (run under -race) and agree.
func TestMaxDisplacementConcurrent(t *testing.T) {
	p, _ := NewProblem(AlmostSortedKeys(4*Tile, 0.22, 64, 11), 64)
	const workers = 4
	secs := make([]float64, workers)
	disps := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := LocalitySort(p, dev())
			if err != nil {
				t.Error(err)
			}
			secs[w], disps[w] = res.Seconds, p.MaxDisplacement()
		}(w)
	}
	wg.Wait()
	fresh, _ := NewProblem(p.Keys, 64)
	want := fresh.MaxDisplacement()
	for w := range secs {
		if secs[w] != secs[0] || disps[w] != want {
			t.Fatalf("worker %d: seconds %v disp %d, want %v and %d", w, secs[w], disps[w], secs[0], want)
		}
	}
}

// TestCostMatchesRun pins the split between pricing and sorting: every
// variant's Cost must equal its Run's Seconds bit for bit, since corpus
// labelling prices with Cost while deployment runs Run.
func TestCostMatchesRun(t *testing.T) {
	gens := map[string]func(n int) []float64{
		"uniform":     func(n int) []float64 { return UniformKeys(n, 1) },
		"normal":      func(n int) []float64 { return NormalKeys(n, 2) },
		"exponential": func(n int) []float64 { return ExponentialKeys(n, 3) },
		"reverse":     func(n int) []float64 { return ReverseSortedKeys(n, 4) },
		"almost":      func(n int) []float64 { return AlmostSortedKeys(n, 0.22, 64, 5) },
		"sorted":      func(n int) []float64 { return reverse(ReverseSortedKeys(n, 6)) },
		"duplicates": func(n int) []float64 {
			keys := make([]float64, n)
			for i := range keys {
				keys[i] = float64(i % 7)
			}
			return keys
		},
	}
	for name, gen := range gens {
		for _, n := range []int{1, 2, Tile - 1, Tile, Tile + 1, 5*Tile + 3} {
			keys := gen(n)
			for _, bits := range []int{32, 64} {
				p, err := NewProblem(keys, bits)
				if err != nil {
					t.Fatal(err)
				}
				if name == "sorted" && p.MaxDisplacement() != 0 {
					t.Fatalf("sorted n=%d: displacement %d", n, p.MaxDisplacement())
				}
				for _, v := range Variants() {
					res, err := v.Run(p, dev())
					if err != nil {
						t.Fatal(err)
					}
					if c := v.Cost(p, dev()); math.Float64bits(c) != math.Float64bits(res.Seconds) {
						t.Errorf("%s %s n=%d %d-bit: Cost %v, Run %v", v.Name, name, n, bits, c, res.Seconds)
					}
				}
			}
		}
	}
}

// TestDisplacementBounds: the two one-pass bounds bracket MaxDisplacement on
// uniform, reverse, tied (with -0 and +0) and almost-sorted sequences, the
// last with swap windows from 32 up to above Tile, each at several lengths.
// On boundsDisagreeKeys, the FuzzSortVariants seed that keeps the ranking
// path covered, the bounds' pass counts differ and the exact one lies
// strictly between them.
func TestDisplacementBounds(t *testing.T) {
	const n = 4*Tile + 3
	seqs := map[string][]float64{
		"uniform": UniformKeys(n, 1),
		"reverse": ReverseSortedKeys(n, 2),
		"tied":    tiedKeys(n),
	}
	for _, w := range []int{32, 64, 128, 512, Tile, Tile + 1, 3 * Tile} {
		seqs[fmt.Sprintf("almost/window=%d", w)] = AlmostSortedKeys(n, 0.22, w, int64(w))
	}
	for name, keys := range seqs {
		for _, m := range []int{1, 2, 33, Tile, Tile + 1, 2*Tile + 5, n} {
			p, err := NewProblem(keys[:m], 64)
			if err != nil {
				t.Fatal(err)
			}
			lo, d, hi := displacementLowerBound(p.Keys), p.MaxDisplacement(), displacementUpperBound(p.Keys)
			if lo > d || d > hi {
				t.Errorf("%s n=%d: MaxDisplacement %d outside its bounds [%d, %d]", name, m, d, lo, hi)
			}
		}
	}
	keys := boundsDisagreeKeys()
	p, err := NewProblem(keys, 64)
	if err != nil {
		t.Fatal(err)
	}
	lo := passesForDisplacement(displacementLowerBound(keys), len(keys))
	exact := passesForDisplacement(p.MaxDisplacement(), len(keys))
	hi := passesForDisplacement(displacementUpperBound(keys), len(keys))
	if !(lo < exact && exact < hi) {
		t.Fatalf("premise: pass counts %d (lower bound), %d (exact), %d (upper bound) are not strictly increasing", lo, exact, hi)
	}
	if got := localityPasses(p); got != exact {
		t.Fatalf("locality passes = %d, want %d", got, exact)
	}
}
