package sortbench

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"
)

// fuzzKeyBytes encodes keys as the little-endian float64 bytes
// FuzzSortVariants decodes.
func fuzzKeyBytes(keys []float64) []byte {
	out := make([]byte, 8*len(keys))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(k))
	}
	return out
}

// tiedKeys returns n keys drawn from a handful of values, -0 and +0 among
// them, so stable ranks hinge on ties and on -0 sorting below +0.
func tiedKeys(n int) []float64 {
	vals := []float64{2, math.Copysign(0, -1), 1, 0, 2, -1}
	out := make([]float64, n)
	for i := range out {
		out[i] = vals[(i*7919)%len(vals)]
	}
	return out
}

// boundsDisagreeKeys is an almost-sorted sequence on which the two one-pass
// displacement bounds give different locality pass counts, and the exact
// count lies strictly between them, so localityPasses must rank the keys.
func boundsDisagreeKeys() []float64 { return AlmostSortedKeys(2*Tile+5, 0.2, 512, 1) }

// FuzzSortVariants decodes the fuzz bytes as float64 keys (a trailing partial
// key is dropped) and a width flag. NewProblem must accept exactly the
// non-empty NaN-free inputs, and on each one every variant must sort like
// sort.Float64s, Cost must equal Run's Seconds bit for bit, the maximum
// displacement must lie in [0, n) and between its two one-pass bounds, and
// the locality pass count, which the bounds may settle without ranking,
// must equal the count from MaxDisplacement.
func FuzzSortVariants(f *testing.F) {
	f.Add(fuzzKeyBytes([]float64{3, math.NaN(), 1, 2, math.NaN(), 0}), true)
	f.Add(fuzzKeyBytes([]float64{math.Inf(1), -1, math.Copysign(0, -1), 0, math.Inf(-1), -1}), false)
	f.Add(fuzzKeyBytes(ReverseSortedKeys(Tile+1, 1)), true)
	f.Add(fuzzKeyBytes(AlmostSortedKeys(2*Tile+5, 0.22, 64, 2)), false)
	f.Add([]byte{}, true)
	f.Add(fuzzKeyBytes(UniformKeys(3*Tile, 3)), true)
	f.Add(fuzzKeyBytes(AlmostSortedKeys(4*Tile+1, 0.2, 512, 4)), false)
	f.Add(fuzzKeyBytes(tiedKeys(2*Tile+1)), true)
	f.Add(fuzzKeyBytes(boundsDisagreeKeys()), true)
	f.Fuzz(func(t *testing.T, data []byte, wide bool) {
		keys := make([]float64, len(data)/8)
		hasNaN := false
		for i := range keys {
			keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			hasNaN = hasNaN || math.IsNaN(keys[i])
		}
		bits := 32
		if wide {
			bits = 64
		}
		p, err := NewProblem(keys, bits)
		if (err == nil) != (len(keys) > 0 && !hasNaN) {
			t.Fatalf("NewProblem(%d keys, NaN=%v) error = %v", len(keys), hasNaN, err)
		}
		if err != nil {
			return
		}
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		for _, v := range Variants() {
			res, err := v.Run(p, dev())
			if err != nil {
				t.Fatalf("%s: %v", v.Name, err)
			}
			if len(res.Sorted) != len(want) {
				t.Fatalf("%s: %d keys out, %d in", v.Name, len(res.Sorted), len(want))
			}
			for i := range want {
				if res.Sorted[i] != want[i] {
					t.Fatalf("%s: key %d = %v, want %v", v.Name, i, res.Sorted[i], want[i])
				}
			}
			if c := v.Cost(p, dev()); math.Float64bits(c) != math.Float64bits(res.Seconds) {
				t.Fatalf("%s: Cost %v, Run %v", v.Name, c, res.Seconds)
			}
		}
		if d := p.MaxDisplacement(); d < 0 || d >= len(keys) {
			t.Fatalf("MaxDisplacement = %d for %d keys", d, len(keys))
		}
		if lo, d, hi := displacementLowerBound(keys), p.MaxDisplacement(), displacementUpperBound(keys); lo > d || d > hi {
			t.Fatalf("MaxDisplacement %d outside its bounds [%d, %d]", d, lo, hi)
		}
		if got, want := localityPasses(p), passesForDisplacement(p.MaxDisplacement(), len(keys)); got != want {
			t.Fatalf("locality passes = %d, MaxDisplacement %d gives %d", got, p.MaxDisplacement(), want)
		}
	})
}
