// Canary deployment: serve a challenger model to a configured fraction of
// traffic through the regular dispatch ladder, without touching the stable
// model slot.
//
// A canary rides the same per-function modelSlot the hot-swap machinery
// uses: one extra atomic pointer holds the challenger, and predict draws
// per call whether this call is served by the challenger or by the stable
// tiers. The draw is a pure function of the cell's admission count, so
// serial callers get the same split, and the same memo contents, on every
// run. Canary-served predictions bypass the memo cache in both directions —
// they never read a stable-model entry and never poison the cache with
// challenger predictions — so clearing or promoting a canary invalidates
// nothing.
//
// The cell keeps its own atomic calls/failures counters: a canary-served
// call counts as failed when its pick was vetoed or quarantined at selection
// time (the runtime fell back), or when the executed variant panicked, timed
// out or aborted. Those counters are what a rollout controller (the
// internal/server poller) reports fleet-wide to decide promotion vs
// rollback. A caller-cancelled context counts neither way — it says nothing
// about the challenger.
package core

import (
	"fmt"
	"sync/atomic"

	"nitro/internal/ml"
)

// canaryCell is one function's challenger deployment: the model, the traffic
// fraction it serves, and the outcome counters. The cell is immutable except
// for the counters, so readers need no lock; install/clear swaps the whole
// cell atomically.
type canaryCell struct {
	model    *ml.Model
	fraction float64
	draws    atomic.Uint64 // admissions drawn at a fraction strictly inside (0, 1)
	calls    atomic.Int64
	failures atomic.Int64
}

// admit draws whether one call is served by the challenger: the k-th draw
// compares the k-th output of splitmix64 (seed 0), as a uniform value in
// [0, 1), with the fraction.
func (c *canaryCell) admit() bool {
	if c.fraction >= 1 {
		return true
	}
	if c.fraction <= 0 {
		return false
	}
	x := c.draws.Add(1) * 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)*0x1p-53 < c.fraction
}

// record accounts one canary-served dispatch outcome.
func (c *canaryCell) record(failed bool) {
	c.calls.Add(1)
	if failed {
		c.failures.Add(1)
	}
}

// CanaryStats snapshots one function's canary deployment.
type CanaryStats struct {
	// Active reports whether a challenger is installed.
	Active bool `json:"active"`
	// Version is the challenger model's stamped version (0 when unstamped
	// or inactive).
	Version int `json:"version"`
	// Fraction is the traffic share the challenger serves.
	Fraction float64 `json:"fraction"`
	// Calls / Failures count canary-served dispatches and how many of them
	// failed (selection fallback or variant failure).
	Calls    int64 `json:"calls"`
	Failures int64 `json:"failures"`
}

// SetCanary installs m as the named function's challenger, served to the
// given fraction of calls (clamped to [0, 1]) through the regular dispatch
// ladder; the stable model keeps serving the rest. The install is atomic and
// validated exactly like SetModel; installing over an existing canary
// replaces it and resets its counters. The stable slot is untouched — a
// canary is promoted by SetModel + ClearCanary, and rolled back by
// ClearCanary alone.
func (cx *Context) SetCanary(fn string, m *ml.Model, fraction float64) error {
	if m == nil {
		return fmt.Errorf("core: install canary for %q: nil model", fn)
	}
	if err := cx.validateModel(fn, m); err != nil {
		return fmt.Errorf("core: install canary for %q: %w", fn, err)
	}
	if fraction < 0 {
		fraction = 0
	} else if fraction > 1 {
		fraction = 1
	}
	cx.slotFor(fn).canary.Store(&canaryCell{model: m, fraction: fraction})
	return nil
}

// ClearCanary removes the named function's challenger (no-op when none is
// installed); subsequent calls are all served by the stable model.
func (cx *Context) ClearCanary(fn string) {
	cx.slotFor(fn).canary.Store(nil)
}

// CanaryModel returns the installed challenger model, if any.
func (cx *Context) CanaryModel(fn string) (*ml.Model, bool) {
	c := cx.slotFor(fn).canary.Load()
	if c == nil {
		return nil, false
	}
	return c.model, true
}

// CanaryStats snapshots the named function's canary deployment counters.
func (cx *Context) CanaryStats(fn string) CanaryStats {
	c := cx.slotFor(fn).canary.Load()
	if c == nil {
		return CanaryStats{}
	}
	return CanaryStats{
		Active:   true,
		Version:  c.model.Version(),
		Fraction: c.fraction,
		Calls:    c.calls.Load(),
		Failures: c.failures.Load(),
	}
}
