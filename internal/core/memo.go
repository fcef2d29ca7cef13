package core

import (
	"math"
	"sync/atomic"

	"nitro/internal/ml"
)

// This file is the memoization tier of the dispatch ladder: a bounded,
// direct-mapped, lock-free cache from feature-vector fingerprint to the
// model's raw prediction. It sits behind the compiled tier, so it is
// consulted only when the compiled walk cannot decide (a model without a
// program, or a walk inside the margin) and holds only exact-tier
// predictions. Repeat callers there — the common case the "A Few Fit
// Most" observation predicts — skip the scaler and kernel entirely and pay
// one hash plus one atomic pointer load.
//
// Correctness model:
//
//   - The cache memoizes ONLY the model's raw prediction, never the dispatch
//     outcome. Constraints and quarantine (selectable) are re-checked on
//     every call, so a memo hit can never dispatch a variant a full predict
//     path would have rejected, and a quarantine trip or recovery cannot
//     make an entry wrong: a hit whose predicted variant is quarantined
//     falls back exactly like a fresh prediction would.
//   - Entries are keyed by the exact feature vector (fingerprint plus full
//     equality check, so hash collisions can never alias two inputs) AND by
//     the model that computed the prediction. A call looks up entries under
//     the model it loaded, so an entry of any other model never matches: a
//     hot-swap needs no invalidation and no ordering between loads, and a
//     store racing one files its entry under the model that computed it.
//     Reinstalling the same pointer keeps its entries, which is sound
//     because an installed model is never mutated (see Context.SetModel).
//   - An entry holds its model, so no later model can be allocated at the
//     same address while the entry exists. The price: a stale entry keeps
//     its model reachable until its slot is overwritten, at most memoSlots
//     retired models per CodeVariant.
//
// Admission: a slot's entry is replaced only by a vector whose miss follows
// its own previous miss there. seen holds, per slot, the fingerprint of the
// last vector that missed in it — TinyLFU's doorkeeper cut down to one word
// per direct-mapped slot. A stream of never-repeated vectors then costs one
// atomic store per miss instead of two allocations and a pointer publish,
// and a one-off miss cannot evict a resident entry. seen is advisory: it
// never keys a hit (lookup still checks hash, vector and model), and it is
// not reset on hot-swap, so a vector admitted under an earlier model
// refills on its first miss under the new one.
type memoCache struct {
	mask  uint64
	slots []atomic.Pointer[memoEntry]
	seen  []atomic.Uint64
}

// memoEntry is one immutable cache cell: published with an atomic pointer
// store, never mutated afterwards, so readers need no locks.
type memoEntry struct {
	hash  uint64
	model *ml.Model // the model that computed pred
	vec   []float64
	pred  int32
}

// memoSlots is the slot count of every CodeVariant's cache (power of two).
const memoSlots = 1024

// newMemoCache builds a cache with at least size slots (rounded up to a
// power of two).
func newMemoCache(size int) *memoCache {
	n := 1
	for n < size {
		n <<= 1
	}
	return &memoCache{
		mask:  uint64(n - 1),
		slots: make([]atomic.Pointer[memoEntry], n),
		seen:  make([]atomic.Uint64, n),
	}
}

// memoHash fingerprints a feature vector: FNV-1a folded over the float64
// bit patterns, word at a time, then avalanched. The finalizer is load-
// bearing for the direct-mapped cache: multiplication only propagates bits
// upward, so without it vectors differing only in exponent/high-mantissa
// bits (0.0, 1.0, 2.0, ...) share their low bits and collapse onto one
// slot, evicting each other. Residual collisions are tolerable — lookup
// verifies full vector equality.
func memoHash(vec []float64) uint64 {
	const offset64 = 14695981039346656037
	const prime64 = 1099511628211
	h := uint64(offset64)
	for _, v := range vec {
		h = (h ^ math.Float64bits(v)) * prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// lookup returns the prediction model m memoized for vec, when present. NaN
// features never match themselves, so such vectors simply always miss.
func (c *memoCache) lookup(h uint64, vec []float64, m *ml.Model) (int, bool) {
	e := c.slots[h&c.mask].Load()
	if e == nil || e.hash != h || e.model != m || len(e.vec) != len(vec) {
		return 0, false
	}
	for i, v := range vec {
		if e.vec[i] != v {
			return 0, false
		}
	}
	return int(e.pred), true
}

// store publishes model m's prediction for vec, or, when the slot's previous
// miss was another vector, only records this one's fingerprint (see
// memoCache). The vector is copied: callers recycle their feature buffers.
func (c *memoCache) store(h uint64, vec []float64, pred int, m *ml.Model) {
	i := h & c.mask
	if c.seen[i].Load() != h {
		c.seen[i].Store(h)
		return
	}
	c.slots[i].Store(&memoEntry{
		hash:  h,
		model: m,
		vec:   append([]float64(nil), vec...),
		pred:  int32(pred),
	})
}
