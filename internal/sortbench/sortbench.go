// Package sortbench implements the sorting substrate of the Nitro
// reproduction, standing in for ModernGPU's merge and locality sorts and
// CUB's radix sort: three real sorting algorithms over floating-point keys,
// the paper's three selection features (N, Nbits, NAscSeq), and seeded key
// generators for the uniform-random, reverse-sorted and almost-sorted test
// categories on 32- and 64-bit keys. Each variant's Run sorts for real and
// reports the simulated GPU time its Cost prices from the algorithm's pass
// structure (radix pays per key bit, merge pays log N passes, locality sort
// pays only for the observed disorder), which reproduces the paper's
// crossovers: radix dominates 32-bit keys, merge/locality overtake it on
// 64-bit keys, and locality sort wins on almost-sorted inputs. The price
// depends only on the key count, the key width and the maximum key
// displacement, never on the sorted keys, so a labeller can call Cost alone.
package sortbench

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"

	"nitro/internal/gpusim"
)

// Tile is the block-sort tile size of the merge-based variants (ModernGPU
// sorts tiles in shared memory before the global merge passes).
const Tile = 1024

// Problem is one sorting instance: keys plus their nominal width in bits (32
// or 64 — the paper sorts float and double keys; width drives radix pass
// count and memory traffic).
type Problem struct {
	Keys []float64
	Bits int

	dispOnce sync.Once
	maxDisp  int
}

// NewProblem validates and wraps a sorting workload. NaN keys are rejected:
// they have no place in a total order, so the variants would disagree on
// where to put them.
func NewProblem(keys []float64, bits int) (*Problem, error) {
	if len(keys) == 0 {
		return nil, errors.New("sortbench: empty input")
	}
	if bits != 32 && bits != 64 {
		return nil, errors.New("sortbench: key width must be 32 or 64 bits")
	}
	for _, k := range keys {
		if math.IsNaN(k) {
			return nil, errors.New("sortbench: NaN key")
		}
	}
	return &Problem{Keys: keys, Bits: bits}, nil
}

// KeyBytes returns the storage size of one key.
func (p *Problem) KeyBytes() int { return p.Bits / 8 }

// MaxDisplacement returns the largest distance any key must travel to its
// sorted position (computed once and safe for concurrent use; the
// locality-sort cost model uses it). The stable rank assignment uses an LSD
// radix sort over the order-preserving bit transform, so it is O(n) rather
// than comparison-bound.
func (p *Problem) MaxDisplacement() int {
	p.dispOnce.Do(func() {
		maxDisp := 0
		for rank, orig := range sortIndicesByKey(p.Keys) {
			maxDisp = max(maxDisp, rank-int(orig), int(orig)-rank)
		}
		p.maxDisp = maxDisp
	})
	return p.maxDisp
}

// sortIndicesByKey returns the original indices in stable key-sorted order.
func sortIndicesByKey(keys []float64) []int32 {
	n := len(keys)
	a := make([]uint64, n)
	ia := make([]int32, n)
	for i, v := range keys {
		a[i] = floatToSortable(v)
		ia[i] = int32(i)
	}
	b := make([]uint64, n)
	ib := make([]int32, n)
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, v := range a {
			count[(v>>shift)&0xff]++
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for j, v := range a {
			d := (v >> shift) & 0xff
			b[count[d]] = v
			ib[count[d]] = ia[j]
			count[d]++
		}
		a, b = b, a
		ia, ib = ib, ia
	}
	return ia
}

// Features holds the paper's three sort selection features.
type Features struct {
	N       float64
	NBits   float64
	NAscSeq float64 // number of ascending subsequences (runs)
}

// Vector returns [N, Nbits, NAscSeq], the Fig. 4 order.
func (f Features) Vector() []float64 { return []float64{f.N, f.NBits, f.NAscSeq} }

// FeatureNames lists the feature order used by Features.Vector.
func FeatureNames() []string { return []string{"N", "Nbits", "NAscSeq"} }

// ComputeFeatures derives the selection features in one pass.
func ComputeFeatures(p *Problem) Features {
	f := Features{N: float64(len(p.Keys)), NBits: float64(p.Bits), NAscSeq: 1}
	for i := 1; i < len(p.Keys); i++ {
		if p.Keys[i] < p.Keys[i-1] {
			f.NAscSeq++
		}
	}
	return f
}

// Result is a variant execution: the sorted keys and the simulated time.
type Result struct {
	Sorted  []float64
	Seconds float64
}

// Variant is one sorting code variant. Run sorts the keys for real and
// reports Cost's time; Cost is the pass-structure price alone, bit-identical
// to Run's Seconds without the sort.
type Variant struct {
	Name string
	Run  func(p *Problem, dev *gpusim.Device) (Result, error)
	Cost func(p *Problem, dev *gpusim.Device) float64
}

// Variants returns the paper's three variants in Fig. 4 order: Merge Sort,
// Locality Sort, Radix Sort.
func Variants() []Variant {
	return []Variant{
		{Name: "Merge", Run: MergeSort, Cost: mergeCost},
		{Name: "Locality", Run: LocalitySort, Cost: localityCost},
		{Name: "Radix", Run: RadixSort, Cost: radixCost},
	}
}

// VariantNames returns the names in Variants order.
func VariantNames() []string {
	vs := Variants()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// mergePassCount returns the number of global merge passes after block sort.
func mergePassCount(n int) int {
	passes := 0
	for width := Tile; width < n; width *= 2 {
		passes++
	}
	return passes
}

// chargeBlockSort accounts the in-shared-memory tile sort.
func chargeBlockSort(k *gpusim.Kernel, n, kb int) {
	k.GlobalRead(float64(n * kb))
	k.GlobalWrite(float64(n * kb))
	k.ComputeSP(float64(n) * 10 * math.Log2(Tile)) // comparisons in shared memory
}

// chargeMergePass accounts one global merge pass over n keys.
func chargeMergePass(k *gpusim.Kernel, n, kb int) {
	k.GlobalRead(float64(n * kb))
	k.GlobalWrite(float64(n * kb))
	k.ComputeSP(float64(8 * n))
}

// mergeRuns performs a bottom-up natural merge over the given run
// boundaries, returning the sorted slice. Buffers alternate between rounds
// to avoid copy-backs.
func mergeRuns(keys []float64, runs [][2]int) []float64 {
	cur := append([]float64(nil), keys...)
	buf := make([]float64, len(keys))
	for len(runs) > 1 {
		next := make([][2]int, 0, (len(runs)+1)/2)
		for i := 0; i < len(runs); i += 2 {
			if i+1 == len(runs) {
				r := runs[i]
				copy(buf[r[0]:r[1]], cur[r[0]:r[1]])
				next = append(next, r)
				continue
			}
			a, b := runs[i], runs[i+1]
			lo, mid, hi := a[0], b[0], b[1]
			x, y, out := lo, mid, lo
			for x < mid && y < hi {
				if cur[x] <= cur[y] {
					buf[out] = cur[x]
					x++
				} else {
					buf[out] = cur[y]
					y++
				}
				out++
			}
			copy(buf[out:out+mid-x], cur[x:mid])
			out += mid - x
			copy(buf[out:out+hi-y], cur[y:hi])
			next = append(next, [2]int{lo, hi})
		}
		cur, buf = buf, cur
		runs = next
	}
	return cur
}

// tileRuns returns fixed Tile-sized boundaries with each tile pre-sorted
// (the block-sort stage shared by merge and locality sort).
func tileRuns(keys []float64) ([]float64, [][2]int) {
	cur := append([]float64(nil), keys...)
	var runs [][2]int
	for lo := 0; lo < len(cur); lo += Tile {
		hi := lo + Tile
		if hi > len(cur) {
			hi = len(cur)
		}
		sort.Float64s(cur[lo:hi])
		runs = append(runs, [2]int{lo, hi})
	}
	return cur, runs
}

// MergeSort is the ModernGPU merge sort: block sort then log(N/Tile)
// full-width global merge passes.
func MergeSort(p *Problem, dev *gpusim.Device) (Result, error) {
	return Result{Sorted: mergeRuns(tileRuns(p.Keys)), Seconds: mergeCost(p, dev)}, nil
}

// mergeCost prices MergeSort's pass structure.
func mergeCost(p *Problem, dev *gpusim.Device) float64 {
	n, kb := len(p.Keys), p.KeyBytes()
	run := gpusim.NewRun(dev)
	k := run.Launch("mergesort", minInt(n, dev.MaxResidentThreads()*2))
	chargeBlockSort(k, n, kb)
	for i := 0; i < mergePassCount(n); i++ {
		chargeMergePass(k, n, kb)
		k.Latency(float64(dev.LaunchOverheadNs) / 2) // per-pass kernel boundary
	}
	run.Done(k)
	return run.Seconds()
}

// LocalitySort is the ModernGPU locality sort: after block sort, merge
// passes widen only until they cover the maximum key displacement, so
// nearly-sorted inputs finish in one cheap pass. A run-detection prepass
// reads the keys once.
func LocalitySort(p *Problem, dev *gpusim.Device) (Result, error) {
	return Result{Sorted: mergeRuns(tileRuns(p.Keys)), Seconds: localityCost(p, dev)}, nil
}

// localityPasses returns LocalitySort's merge-pass count: one pass, plus
// one for every merge width from Tile up that is below both twice the
// maximum key displacement and n. The count changes only where twice the
// displacement crosses a merge width, so two one-pass bounds on the
// displacement usually settle it without ranking the keys: a lower bound
// that saturates the count on disordered inputs, then an upper bound that
// pins it on almost-sorted ones. MaxDisplacement ranks the keys only when
// the two bounds give different counts.
func localityPasses(p *Problem) int {
	n := len(p.Keys)
	if n <= Tile {
		return 1
	}
	lo := passesForDisplacement(displacementLowerBound(p.Keys), n)
	if lo == 1+mergePassCount(n) || lo == passesForDisplacement(displacementUpperBound(p.Keys), n) {
		return lo
	}
	return passesForDisplacement(p.MaxDisplacement(), n)
}

// passesForDisplacement returns LocalitySort's merge-pass count over n keys
// whose maximum displacement is disp.
func passesForDisplacement(disp, n int) int {
	passes := 1
	for width := Tile; width < 2*disp && width < n; width *= 2 {
		passes++
	}
	return passes
}

// displacementLowerBound returns, in one pass, the largest displacement
// among four keys whose stable sorted ranks need no sort: the first minimum
// (rank 0), the last maximum (rank n-1), the first key (ranked after every
// smaller key) and the last key (ranked before every larger key). Keys
// compare in MaxDisplacement's order, so -0 sorts below +0.
func displacementLowerBound(keys []float64) int {
	n := len(keys)
	first, last := floatToSortable(keys[0]), floatToSortable(keys[n-1])
	lo, hi := first, first
	loAt, hiAt, below, above := 0, 0, 0, 0
	for i, k := range keys {
		u := floatToSortable(k)
		if u < lo {
			lo, loAt = u, i
		}
		if u >= hi {
			hi, hiAt = u, i
		}
		if u < first {
			below++
		}
		if u > last {
			above++
		}
	}
	return max(loAt, n-1-hiAt, below, above)
}

// displacementUpperBound returns the widest inversion: the largest j-i over
// pairs i<j whose key i compares above key j (in MaxDisplacement's order,
// so -0 sorts below +0). It bounds every key's stable-rank displacement,
// because every key that must pass key i on its way to its rank forms an
// inversion with it and so lies within that distance. Some pair i'<=i<j<=j'
// is an inversion exactly when the maximum of keys[:i+1] exceeds the
// minimum of keys[j:]; both only grow with their index, so one sweep that
// advances j while that holds and i otherwise visits the widest pair.
func displacementUpperBound(keys []float64) int {
	n := len(keys)
	sufMin := make([]uint64, n)
	m := uint64(math.MaxUint64)
	for j := n - 1; j >= 0; j-- {
		m = min(m, floatToSortable(keys[j]))
		sufMin[j] = m
	}
	widest := 0
	preMax := floatToSortable(keys[0])
	for i, j := 0, 1; j < n; {
		if preMax > sufMin[j] {
			widest = max(widest, j-i)
			j++
			continue
		}
		i++
		if i == j {
			j++
		}
		preMax = max(preMax, floatToSortable(keys[i]))
	}
	return widest
}

// localityCost prices LocalitySort's pass structure.
func localityCost(p *Problem, dev *gpusim.Device) float64 {
	n, kb := len(p.Keys), p.KeyBytes()
	passes := localityPasses(p)
	run := gpusim.NewRun(dev)
	k := run.Launch("localitysort", minInt(n, dev.MaxResidentThreads()*2))
	k.GlobalRead(float64(n * kb)) // disorder-detection prepass
	chargeBlockSort(k, n, kb)
	for i := 0; i < passes; i++ {
		chargeMergePass(k, n, kb)
		k.Latency(float64(dev.LaunchOverheadNs) / 2)
	}
	run.Done(k)
	return run.Seconds()
}

// RadixSort is the CUB LSD radix sort: Bits/8 digit passes, each a
// histogram+scan+scatter round trip over the keys with semi-coalesced
// scatter writes.
func RadixSort(p *Problem, dev *gpusim.Device) (Result, error) {
	return Result{Sorted: radixSortFloat64(p.Keys), Seconds: radixCost(p, dev)}, nil
}

// radixCost prices RadixSort's pass structure.
func radixCost(p *Problem, dev *gpusim.Device) float64 {
	n, kb := len(p.Keys), p.KeyBytes()
	passes := p.Bits / 8
	run := gpusim.NewRun(dev)
	k := run.Launch("radixsort", minInt(n, dev.MaxResidentThreads()*2))
	for i := 0; i < passes; i++ {
		k.GlobalRead(float64(n * kb))      // digit histogram read
		k.GlobalRead(float64(n * kb))      // scatter-pass key read
		k.GlobalWrite(float64(n*kb) * 1.6) // semi-coalesced scatter
		k.ComputeSP(float64(6 * n))
		k.Latency(float64(dev.LaunchOverheadNs)) // 3 kernels per digit
	}
	run.Done(k)
	return run.Seconds()
}

// radixSortFloat64 sorts by the IEEE-754 order-preserving bit transform with
// 8-bit LSD passes.
func radixSortFloat64(keys []float64) []float64 {
	n := len(keys)
	a := make([]uint64, n)
	for i, v := range keys {
		a[i] = floatToSortable(v)
	}
	b := make([]uint64, n)
	var count [256]int
	for shift := 0; shift < 64; shift += 8 {
		for i := range count {
			count[i] = 0
		}
		for _, v := range a {
			count[(v>>shift)&0xff]++
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, v := range a {
			d := (v >> shift) & 0xff
			b[count[d]] = v
			count[d]++
		}
		a, b = b, a
	}
	out := make([]float64, n)
	for i, v := range a {
		out[i] = sortableToFloat(v)
	}
	return out
}

// floatToSortable maps a float64 to a uint64 whose unsigned order matches
// the float order (standard sign-flip transform).
func floatToSortable(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

func sortableToFloat(u uint64) float64 {
	if u&(1<<63) != 0 {
		return math.Float64frombits(u &^ (1 << 63))
	}
	return math.Float64frombits(^u)
}

// Generators for the paper's three test categories.

// UniformKeys returns n uniform random keys.
func UniformKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64()
	}
	return out
}

// NormalKeys returns n standard-normal keys (the paper's alternate random
// category, which behaved identically to uniform).
func NormalKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// ExponentialKeys returns n standard-exponential keys.
func ExponentialKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.ExpFloat64()
	}
	return out
}

// ReverseSortedKeys returns n strictly descending keys.
func ReverseSortedKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := 0.0
	for i := n - 1; i >= 0; i-- {
		v += rng.Float64() + 1e-9
		out[i] = v
	}
	return out
}

// AlmostSortedKeys returns a sorted sequence with swapFrac of the keys
// swapped with a partner at most window positions away (the paper's
// almost-sorted category: 20-25% of keys swapped). Local swaps bound the
// displacement, which is precisely what locality sort exploits.
func AlmostSortedKeys(n int, swapFrac float64, window int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	v := 0.0
	for i := range out {
		v += rng.Float64() + 1e-9
		out[i] = v
	}
	if window < 1 {
		window = 1
	}
	swaps := int(float64(n) * swapFrac / 2)
	for s := 0; s < swaps; s++ {
		i := rng.Intn(n)
		j := i + 1 + rng.Intn(window)
		if j >= n {
			j = n - 1
		}
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
