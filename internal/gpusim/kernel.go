package gpusim

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Kernel accumulates the operation charges of one simulated kernel launch.
// Obtain one from Device-bound Run.Launch, charge operations against it while
// performing the real computation, then call Finish to convert the charges to
// a simulated time.
type Kernel struct {
	dev     *Device
	name    string
	threads int

	memBytes     float64 // perfectly coalesced traffic
	memTxns      float64 // discrete transactions (uncoalesced/gather misses)
	texHits      float64 // texture-cache hits
	flopsSP      float64
	flopsDP      float64
	atomicNs     float64 // serialized atomic time
	divergenceMu float64 // multiplier >= 1 applied to compute time
	throughputMu float64 // multiplier >= 1 applied to the kernel body
	imbalanceMu  float64 // multiplier >= 1 applied to the whole kernel
	extraNs      float64 // direct latency charges (e.g. barriers)

	finished bool
	timeNs   float64
}

// Breakdown reports where a finished kernel's simulated time went, in
// nanoseconds. Memory and compute overlap (roofline), so Total is not the sum
// of the parts.
type Breakdown struct {
	Name      string
	Threads   int
	MemoryNs  float64
	ComputeNs float64
	AtomicNs  float64
	ExtraNs   float64
	LaunchNs  float64
	TotalNs   float64
}

// GlobalRead charges fully coalesced global-memory reads of the given number
// of bytes.
func (k *Kernel) GlobalRead(bytes float64) { k.memBytes += bytes }

// GlobalWrite charges fully coalesced global-memory writes.
func (k *Kernel) GlobalWrite(bytes float64) { k.memBytes += bytes }

// StridedAccess charges n accesses of elemBytes each with a fixed stride in
// bytes between consecutive lanes. Stride <= elemBytes is fully coalesced;
// larger strides waste a growing fraction of each transaction until every
// access costs one full transaction.
func (k *Kernel) StridedAccess(n int, elemBytes, strideBytes int) {
	if n <= 0 {
		return
	}
	if strideBytes <= elemBytes {
		k.memBytes += float64(n * elemBytes)
		return
	}
	perTxn := float64(k.dev.TransactionBytes) / float64(strideBytes)
	if perTxn > 1 {
		perTxn = 1
	}
	// Each transaction yields perTxn useful elements (at most 1).
	k.memTxns += float64(n) / math.Max(perTxn*float64(k.dev.TransactionBytes)/float64(elemBytes), 1)
}

// Gather charges n indexed loads of elemBytes each from a region of
// footprintBytes, served by the L1/global path (no texture cache). Locality
// is inferred from the footprint: if the whole region fits in a transaction's
// worth of reuse the loads coalesce, otherwise each miss costs a transaction.
// reuse is the average number of times each distinct element is touched
// (>= 1); higher reuse amortizes transactions only slightly on the global
// path, which is exactly why texture caching pays off for SpMV's x-vector.
func (k *Kernel) Gather(n int, elemBytes int, footprintBytes float64, reuse float64) {
	if n <= 0 {
		return
	}
	if reuse < 1 {
		reuse = 1
	}
	// Distinct cache lines touched:
	lines := footprintBytes / float64(k.dev.TransactionBytes)
	if lines < 1 {
		lines = 1
	}
	// The global path has a small implicit L1; model a weak hit rate that
	// only helps for tiny footprints.
	const l1Bytes = 16 * 1024
	hit := 0.0
	if footprintBytes > 0 && footprintBytes < l1Bytes {
		hit = 1 - footprintBytes/l1Bytes
	}
	misses := float64(n) * (1 - hit)
	k.memTxns += misses
	k.texHits += float64(n) * hit // hits cost like texture hits
	_ = lines
	_ = elemBytes
}

// TextureGather charges n indexed loads of elemBytes each through the texture
// cache. The hit rate is estimated from the working-set footprint relative to
// the per-SM texture cache, boosted by the average reuse per element.
func (k *Kernel) TextureGather(n int, elemBytes int, footprintBytes float64, reuse float64) {
	if n <= 0 {
		return
	}
	if reuse < 1 {
		reuse = 1
	}
	cache := float64(k.dev.TexCacheBytes)
	var hit float64
	if footprintBytes <= cache {
		hit = 1 - 1/reuse // compulsory misses only
	} else {
		// Working set exceeds cache: the retained fraction shrinks with
		// the footprint (an 1/8 weighting reflects line-granularity
		// spatial locality keeping short-range reuse alive).
		hit = (1 - 1/reuse) * cache / (cache + footprintBytes/8)
	}
	if hit < 0 {
		hit = 0
	}
	if hit > 0.98 {
		hit = 0.98
	}
	misses := float64(n) * (1 - hit)
	k.memTxns += misses
	// Every texture access — hit or miss — pays the texture-pipeline cost,
	// which is why texture binding loses when there is no reuse to exploit.
	k.texHits += float64(n)
}

// ComputeSP charges single-precision floating-point operations.
func (k *Kernel) ComputeSP(flops float64) { k.flopsSP += flops }

// ComputeDP charges double-precision floating-point operations.
func (k *Kernel) ComputeDP(flops float64) { k.flopsDP += flops }

// SharedAtomics charges ops shared-memory atomic updates spread over addrs
// distinct addresses with threadsPerBlock concurrent threads per block.
// Contending updates to the same address serialize within the block.
func (k *Kernel) SharedAtomics(ops int, addrs int, threadsPerBlock int) {
	k.atomics(float64(ops), addrs, threadsPerBlock, k.dev.SharedAtomicNs)
}

// GlobalAtomics charges ops global-memory atomic updates spread over addrs
// distinct addresses with the whole grid contending.
func (k *Kernel) GlobalAtomics(ops int, addrs int) {
	k.atomics(float64(ops), addrs, k.threads, k.dev.GlobalAtomicNs)
}

// SkewedGlobalAtomics is GlobalAtomics with an explicit hottest-address share
// (maxShare in [1/addrs, 1]): the serialized chain length is governed by the
// hottest bin, which is what makes atomic histograms collapse on skewed data.
func (k *Kernel) SkewedGlobalAtomics(ops int, addrs int, maxShare float64) {
	k.skewedAtomics(float64(ops), addrs, k.threads, maxShare, k.dev.GlobalAtomicNs)
}

// SkewedSharedAtomics is SharedAtomics with an explicit hottest-address share.
func (k *Kernel) SkewedSharedAtomics(ops int, addrs int, threadsPerBlock int, maxShare float64) {
	k.skewedAtomics(float64(ops), addrs, threadsPerBlock, maxShare, k.dev.SharedAtomicNs)
}

func (k *Kernel) atomics(ops float64, addrs, concurrency int, opNs float64) {
	if addrs <= 0 {
		addrs = 1
	}
	k.skewedAtomics(ops, addrs, concurrency, 1/float64(addrs), opNs)
}

func (k *Kernel) skewedAtomics(ops float64, addrs, concurrency int, maxShare, opNs float64) {
	if ops <= 0 {
		return
	}
	if addrs <= 0 {
		addrs = 1
	}
	if maxShare < 1/float64(addrs) {
		maxShare = 1 / float64(addrs)
	}
	if maxShare > 1 {
		maxShare = 1
	}
	if concurrency <= 0 {
		concurrency = 1
	}
	// Updates to distinct addresses proceed in parallel, up to the atomic
	// pipeline width; updates to the same address serialize. The serialized
	// chain on the hottest address is ops*maxShare long, but only
	// materializes to the extent there are concurrent threads contending
	// for it.
	const pipelineWidth = 128
	contended := math.Min(float64(concurrency), ops*maxShare)
	parallelNs := ops * opNs / math.Min(float64(addrs), pipelineWidth)
	serialNs := ops * maxShare * opNs * math.Min(1, contended/32)
	k.atomicNs += math.Max(parallelNs, serialNs)
}

// Throughput applies a pipeline-efficiency penalty to the whole kernel body:
// eff in (0, 1] is the fraction of issue slots doing useful work. Warp-per-row
// decompositions with rows much shorter than a warp leave most lanes idle in
// every instruction — memory and compute alike — which is what makes ELL beat
// CSR-vector on fine regular rows (Bell & Garland).
func (k *Kernel) Throughput(eff float64) {
	if eff <= 0 || eff >= 1 {
		return
	}
	mu := 1 / eff
	if mu > k.throughputMu {
		k.throughputMu = mu
	}
}

// Divergence applies a warp-divergence penalty: activeFraction is the average
// fraction of lanes doing useful work in divergent sections (1 = no
// divergence). Compute charges are scaled by 1/activeFraction.
func (k *Kernel) Divergence(activeFraction float64) {
	if activeFraction <= 0 {
		activeFraction = 1.0 / float64(k.dev.WarpSize)
	}
	if activeFraction > 1 {
		activeFraction = 1
	}
	mu := 1 / activeFraction
	if mu > k.divergenceMu {
		k.divergenceMu = mu
	}
}

// Imbalance applies a load-imbalance penalty from the heaviest and mean
// per-worker work: a kernel finishes when its slowest SM does. The multiplier
// is softened because the scheduler interleaves many blocks per SM.
func (k *Kernel) Imbalance(maxWork, meanWork float64) {
	if meanWork <= 0 || maxWork <= meanWork {
		return
	}
	ratio := maxWork / meanWork
	// With B blocks per SM the tail is amortized; model sqrt softening.
	mu := 1 + (math.Sqrt(ratio)-1)*0.5
	if mu > k.imbalanceMu {
		k.imbalanceMu = mu
	}
}

// Latency charges a direct, non-overlappable latency in nanoseconds (block
// barriers, global sync loops inside fused kernels, and similar).
func (k *Kernel) Latency(ns float64) { k.extraNs += ns }

// Finish converts the accumulated charges to a simulated kernel time and
// returns it in nanoseconds (including launch overhead). Finish may be called
// once; subsequent calls return the same value.
func (k *Kernel) Finish() float64 {
	if k.finished {
		return k.timeNs
	}
	k.finished = true
	occ := k.dev.occupancy(k.threads)

	// Memory: coalesced bytes stream at peak bandwidth; discrete
	// transactions move TransactionBytes each and are additionally
	// latency-limited at low occupancy.
	bw := k.dev.bytesPerNs() * occ
	memNs := k.memBytes / bw
	memNs += k.memTxns * float64(k.dev.TransactionBytes) / bw
	// Latency bound: each SM can overlap many outstanding transactions;
	// with low parallelism latency dominates.
	inflight := math.Max(float64(k.threads)/float64(k.dev.WarpSize), 1) // warps in flight
	maxOutstanding := math.Min(inflight*2, float64(k.dev.SMCount*48))
	latNs := k.memTxns * k.dev.MemLatencyNs / maxOutstanding
	if latNs > memNs {
		memNs = latNs
	}
	memNs += k.texHits * k.dev.TexHitNs / math.Max(float64(k.dev.SMCount), 1)

	computeNs := (k.flopsSP/k.dev.PeakGFlopsSP + k.flopsDP/k.dev.PeakGFlopsDP) / occ
	if k.divergenceMu > 1 {
		computeNs *= k.divergenceMu
	}

	// Roofline: memory and compute overlap; atomics and direct latencies
	// do not.
	body := math.Max(memNs, computeNs)
	if k.throughputMu > 1 {
		body *= k.throughputMu
	}
	body += k.atomicNs + k.extraNs
	if k.imbalanceMu > 1 {
		body *= k.imbalanceMu
	}
	k.timeNs = body + k.dev.LaunchOverheadNs
	return k.timeNs
}

// Breakdown returns the post-Finish component report; it finishes the kernel
// if needed.
func (k *Kernel) Breakdown() Breakdown {
	total := k.Finish()
	occ := k.dev.occupancy(k.threads)
	bw := k.dev.bytesPerNs() * occ
	memNs := k.memBytes/bw + k.memTxns*float64(k.dev.TransactionBytes)/bw
	computeNs := (k.flopsSP/k.dev.PeakGFlopsSP + k.flopsDP/k.dev.PeakGFlopsDP) / occ * math.Max(k.divergenceMu, 1)
	return Breakdown{
		Name:      k.name,
		Threads:   k.threads,
		MemoryNs:  memNs,
		ComputeNs: computeNs,
		AtomicNs:  k.atomicNs,
		ExtraNs:   k.extraNs,
		LaunchNs:  k.dev.LaunchOverheadNs,
		TotalNs:   total,
	}
}

// Run aggregates the kernels of one simulated variant execution.
type Run struct {
	dev     *Device
	totalNs float64
	kernels []Breakdown
}

// NewRun starts a simulated execution on dev.
func NewRun(dev *Device) *Run { return &Run{dev: dev} }

// Device returns the device the run executes on.
func (r *Run) Device() *Device { return r.dev }

// Launch starts a kernel with the given launched-thread count. The returned
// kernel must be completed with Run.Done (or Kernel.Finish plus Run.AddNs).
func (r *Run) Launch(name string, threads int) *Kernel {
	if threads < 1 {
		threads = 1
	}
	return &Kernel{dev: r.dev, name: name, threads: threads, divergenceMu: 1, throughputMu: 1, imbalanceMu: 1}
}

// Done finishes k and adds its time to the run.
func (r *Run) Done(k *Kernel) {
	r.totalNs += k.Finish()
	r.kernels = append(r.kernels, k.Breakdown())
}

// AddNs adds a raw latency (host-side work, device sync, transfer).
func (r *Run) AddNs(ns float64) { r.totalNs += ns }

// HostSync charges one host<->device synchronization.
func (r *Run) HostSync() { r.totalNs += r.dev.HostSyncNs() }

// Seconds returns the total simulated time in seconds.
func (r *Run) Seconds() float64 { return r.totalNs * 1e-9 }

// Nanoseconds returns the total simulated time in nanoseconds.
func (r *Run) Nanoseconds() float64 { return r.totalNs }

// Kernels returns the breakdown of every completed kernel, slowest first.
func (r *Run) Kernels() []Breakdown {
	out := make([]Breakdown, len(r.kernels))
	copy(out, r.kernels)
	sort.Slice(out, func(i, j int) bool { return out[i].TotalNs > out[j].TotalNs })
	return out
}

// String summarizes the run.
func (r *Run) String() string {
	return fmt.Sprintf("run on %s: %d kernels, %.3f ms", r.dev.Name, len(r.kernels), r.totalNs*1e-6)
}

// String renders one kernel's cost breakdown.
func (b Breakdown) String() string {
	return fmt.Sprintf("%-24s %8d thr  mem %9.2fus  cmp %9.2fus  atom %9.2fus  extra %9.2fus  total %9.2fus",
		b.Name, b.Threads, b.MemoryNs*1e-3, b.ComputeNs*1e-3, b.AtomicNs*1e-3, b.ExtraNs*1e-3, b.TotalNs*1e-3)
}

// Report renders the whole run: every kernel's breakdown (slowest first,
// capped at maxKernels; <= 0 means all) plus the total. It is the trace
// facility experiments and examples use to explain *why* a variant won.
func (r *Run) Report(maxKernels int) string {
	ks := r.Kernels()
	if maxKernels > 0 && len(ks) > maxKernels {
		ks = ks[:maxKernels]
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", r.String())
	for _, b := range ks {
		fmt.Fprintf(&sb, "  %s\n", b)
	}
	return sb.String()
}

// HostCost models host-side (CPU) feature-computation cost: a simple
// bandwidth/op model used to account feature-evaluation overhead in Fig. 8.
type HostCost struct {
	// BandwidthGBs is sequential host memory bandwidth.
	BandwidthGBs float64
	// OpNs is the per-element scalar operation cost.
	OpNs float64
}

// DefaultHost returns a host cost model for the paper's Core i7 930 host.
func DefaultHost() HostCost { return HostCost{BandwidthGBs: 12, OpNs: 1.2} }

// Scan returns the cost in seconds of streaming over bytes of data applying
// ops scalar operations per element of elemBytes.
func (h HostCost) Scan(bytes float64, opsPerElem float64, elemBytes int) float64 {
	if elemBytes <= 0 {
		elemBytes = 8
	}
	elems := bytes / float64(elemBytes)
	ns := bytes/h.BandwidthGBs + elems*opsPerElem*h.OpNs
	return ns * 1e-9
}

// Constant returns the (tiny) cost of an O(1) feature read.
func (h HostCost) Constant() float64 { return 50e-9 }
