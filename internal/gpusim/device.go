// Package gpusim provides a deterministic analytic performance model of a
// Fermi-class GPU (modelled after the NVIDIA Tesla C2050 used in the Nitro
// paper). Code variants perform their real computation in Go and charge the
// memory traffic, arithmetic, atomics and kernel launches they would incur on
// the GPU to a Kernel cost accumulator; the model converts the charges into a
// simulated execution time in seconds.
//
// The model is intentionally simple — a roofline-style combination of
// bandwidth, latency, compute throughput, atomic serialization, warp
// divergence and load imbalance — but it encodes exactly the architectural
// effects that drive variant crossover in the paper: memory coalescing,
// zero fill-in overhead for DIA/ELL formats, texture-cache reuse for gathered
// loads, shared vs global atomic contention, kernel launch overhead for
// iterative (non-fused) kernels, and SIMD lane under-utilization.
//
// All results are deterministic: the same input always produces the same
// simulated time, which makes exhaustive-search labelling and every
// experiment in this repository reproducible.
package gpusim

import "fmt"

// Device describes the modelled GPU. The zero value is not useful; construct
// devices with Fermi or NewDevice.
type Device struct {
	// Name identifies the device in reports.
	Name string
	// SMCount is the number of streaming multiprocessors.
	SMCount int
	// WarpSize is the SIMD width of one warp.
	WarpSize int
	// MaxThreadsPerSM is the resident-thread capacity of one SM; together
	// with SMCount it determines full occupancy.
	MaxThreadsPerSM int
	// ClockGHz is the core clock in GHz.
	ClockGHz float64
	// CoresPerSM is the number of scalar cores per SM.
	CoresPerSM int
	// MemBandwidthGBs is the peak global-memory bandwidth in GB/s.
	MemBandwidthGBs float64
	// MemLatencyNs is the latency of one uncached global-memory transaction.
	MemLatencyNs float64
	// TransactionBytes is the minimum global-memory transaction size; an
	// uncoalesced access wastes the difference between the element size and
	// the transaction size.
	TransactionBytes int
	// TexCacheBytes is the per-SM texture cache capacity used by the
	// texture-path gather model.
	TexCacheBytes int
	// TexHitNs is the per-access texture-pipeline cost (paid by hits and
	// misses alike); it is what makes texture binding a loss when the
	// access stream has no reuse for the cache to exploit.
	TexHitNs float64
	// SharedAtomicNs is the per-operation cost of a shared-memory atomic in
	// the absence of contention.
	SharedAtomicNs float64
	// GlobalAtomicNs is the per-operation cost of a global-memory atomic in
	// the absence of contention.
	GlobalAtomicNs float64
	// LaunchOverheadNs is the fixed host-side cost of one kernel launch.
	LaunchOverheadNs float64
	// PeakGFlopsSP and PeakGFlopsDP are the single/double-precision peak
	// arithmetic rates in GFLOP/s.
	PeakGFlopsSP float64
	PeakGFlopsDP float64
}

// Fermi returns a device modelled after the NVIDIA Tesla C2050 (Fermi) card
// used in the Nitro paper's evaluation.
func Fermi() *Device {
	return &Device{
		Name:             "Tesla C2050 (simulated)",
		SMCount:          14,
		WarpSize:         32,
		MaxThreadsPerSM:  1536,
		ClockGHz:         1.15,
		CoresPerSM:       32,
		MemBandwidthGBs:  144,
		MemLatencyNs:     400,
		TransactionBytes: 32,
		TexCacheBytes:    12 * 1024,
		TexHitNs:         2.0,
		SharedAtomicNs:   2.2,
		GlobalAtomicNs:   6,
		LaunchOverheadNs: 5000,
		PeakGFlopsSP:     1030,
		PeakGFlopsDP:     515,
	}
}

// Kepler returns a device modelled after the NVIDIA Tesla K20c (Kepler), the
// generation after the paper's C2050. The paper's future work calls for
// porting tuned libraries across architectures; the experiment harness uses
// this device to study how a model trained on one architecture transfers to
// another (different bandwidth/compute balance, larger texture path, cheaper
// atomics).
func Kepler() *Device {
	return &Device{
		Name:             "Tesla K20c (simulated)",
		SMCount:          13,
		WarpSize:         32,
		MaxThreadsPerSM:  2048,
		ClockGHz:         0.706,
		CoresPerSM:       192,
		MemBandwidthGBs:  208,
		MemLatencyNs:     350,
		TransactionBytes: 32,
		TexCacheBytes:    48 * 1024,
		TexHitNs:         1.2,
		SharedAtomicNs:   1.4,
		GlobalAtomicNs:   2.5,
		LaunchOverheadNs: 4000,
		PeakGFlopsSP:     3520,
		PeakGFlopsDP:     1170,
	}
}

// NewDevice returns a copy of Fermi with the given name, for building
// hypothetical devices in tests and ablations.
func NewDevice(name string) *Device {
	d := Fermi()
	d.Name = name
	return d
}

// MaxResidentThreads is the whole-device thread capacity.
func (d *Device) MaxResidentThreads() int { return d.SMCount * d.MaxThreadsPerSM }

// HostSyncNs returns the cost of one host<->device synchronization, in
// nanoseconds: half a kernel launch.
func (d *Device) HostSyncNs() float64 { return d.LaunchOverheadNs / 2 }

// bytesPerNs is the peak bandwidth expressed in bytes per nanosecond.
func (d *Device) bytesPerNs() float64 { return d.MemBandwidthGBs } // GB/s == B/ns

// occupancy maps a launched-thread count to a utilization factor in (0, 1].
// Small launches cannot saturate bandwidth or hide latency, so their
// effective throughput is scaled down.
func (d *Device) occupancy(threads int) float64 {
	if threads <= 0 {
		threads = 1
	}
	occ := float64(threads) / float64(d.MaxResidentThreads())
	if occ > 1 {
		occ = 1
	}
	// Even a tiny launch keeps a few warps in flight; floor the factor so
	// costs stay finite and ordering-sane.
	const floor = 0.02
	if occ < floor {
		occ = floor
	}
	return occ
}

// String implements fmt.Stringer.
func (d *Device) String() string {
	return fmt.Sprintf("%s: %d SMs x %d threads, %.0f GB/s, %.0f/%.0f GFLOPS SP/DP",
		d.Name, d.SMCount, d.MaxThreadsPerSM, d.MemBandwidthGBs, d.PeakGFlopsSP, d.PeakGFlopsDP)
}
