// Adaptation hooks: the deployment-runtime half of the online adaptation
// subsystem (internal/online). A CodeVariant can carry one CallObserver — an
// atomic pointer consulted after every successful Call-path dispatch — plus
// the exploration primitives (ObserveVariant, Selectable) an adaptation
// engine needs to re-time non-predicted variants on live inputs.
//
// The hooks are inert by default: with no observer installed the Call paths
// pay exactly one atomic load + nil check, record the same statistics, and
// return byte-identical results to the pre-adaptation runtime (test-asserted
// by the explore-rate-0 identity property in internal/online).
package core

import (
	"fmt"
	"strings"
)

// CallObservation is what the runtime tells an installed CallObserver about
// one successful Call-path dispatch: the input, its feature vector, what the
// model predicted, what actually ran, and what it cost.
type CallObservation[In any] struct {
	// Input is the call's input value.
	Input In
	// Features is the evaluated feature vector (not a copy — observers must
	// not mutate it, and must not retain it past the callback: the Call fast
	// path recycles the buffer through a pool after dispatch. Copy it if you
	// need it later; internal/online's reservoir does).
	Features []float64
	// Predicted is the installed model's raw class prediction for Features,
	// or -1 when no model was installed.
	Predicted int
	// ChosenIdx / Chosen identify the variant that actually executed (after
	// constraint, quarantine and failure fallback).
	ChosenIdx int
	Chosen    string
	// Value is the executed variant's returned optimization value (by
	// convention, seconds).
	Value float64
	// FellBack reports whether selection fell back from the model's pick
	// (constraint veto, quarantine, missing model, or failure fallback).
	FellBack bool
}

// CallObserver receives one CallObservation per successful Call-path
// dispatch (Call, CallCtx, CallFixed, CallConcurrent). ObserveCall runs on
// the calling goroutine after statistics are recorded, so implementations
// must be safe for concurrent invocation and should return quickly on the
// non-sampled path.
type CallObserver[In any] interface {
	ObserveCall(CallObservation[In])
}

// SetCallObserver installs (or, with nil, removes) the CodeVariant's call
// observer. The swap is atomic: calls in flight keep the observer they
// already loaded. One observer per CodeVariant; installing replaces the
// previous one.
func (cv *CodeVariant[In]) SetCallObserver(o CallObserver[In]) {
	if o == nil {
		cv.observer.Store(nil)
		return
	}
	cv.observer.Store(&o)
}

// observe forwards one successful dispatch to the installed observer, if
// any. The unobserved fast path is a single atomic load.
func (cv *CodeVariant[In]) observe(in In, vec []float64, pred, chosen int, value float64, fellBack bool) {
	op := cv.observer.Load()
	if op == nil {
		return
	}
	(*op).ObserveCall(CallObservation[In]{
		Input:     in,
		Features:  vec,
		Predicted: pred,
		ChosenIdx: chosen,
		Chosen:    cv.variants[chosen].name,
		Value:     value,
		FellBack:  fellBack,
	})
}

// ObserveVariant executes variant idx on in for exploration: through the
// fault-tolerant execution path (panic isolation, VariantTimeout, breaker
// bookkeeping) but without touching the deployment call statistics — an
// exploration re-timing is not a served call. Failures feed the variant's
// quarantine breaker exactly like dispatch failures (variant health is
// global), and surface as the usual typed *VariantError.
func (cv *CodeVariant[In]) ObserveVariant(idx int, in In) (float64, error) {
	if idx < 0 || idx >= len(cv.variants) {
		return 0, fmt.Errorf("core: ObserveVariant index %d out of range [0, %d)", idx, len(cv.variants))
	}
	v := &cv.variants[idx]
	qOn := cv.policy.Quarantine.Enabled() && v.br != nil
	acq := brClosed
	if qOn {
		acq = v.br.acquire(nowNanos())
	}
	value, err := cv.runVariant(nil, idx, in)
	if err == nil {
		if qOn && v.br.onSuccess(acq) {
			cv.stats.recordRecovery()
		}
		return value, nil
	}
	if qOn && v.br.onFailure(acq, nowNanos(), cv.policy.Quarantine) {
		cv.stats.recordTrip()
	}
	return 0, err
}

// Selectable reports whether variant idx could be selected for in right now:
// its constraints pass and it is not quarantined. Adaptation engines use it
// to restrict exploration to variants dispatch itself would be willing to
// run.
func (cv *CodeVariant[In]) Selectable(idx int, in In) bool {
	if idx < 0 || idx >= len(cv.variants) {
		return false
	}
	var now int64
	if cv.policy.Quarantine.Enabled() {
		now = nowNanos()
	}
	return cv.selectable(idx, in, now)
}

// DefaultIndex returns the default variant's label index (-1 before any
// variant is registered).
func (cv *CodeVariant[In]) DefaultIndex() int { return cv.defIdx }

// AdaptStats is a point-in-time snapshot of one adaptation engine's
// counters: how much it sampled and explored, what the drift detector saw,
// and how many retrains, hot-swaps and rollbacks it performed. Produced by
// internal/online's Engine.Stats; defined here next to CallStats so the two
// deployment-statistics snapshots live (and serialize) together.
type AdaptStats struct {
	// Calls counts dispatches seen by the observer hook.
	Calls int64 `json:"calls"`
	// Sampled counts calls admitted by the rate limiter.
	Sampled int64 `json:"sampled"`
	// Explored counts sampled calls on which the epsilon-greedy budget spent
	// a full re-timing of the alternative variants.
	Explored int64 `json:"explored"`
	// ExploreFailures counts variant failures during exploration re-timings.
	ExploreFailures int64 `json:"explore_failures"`
	// ExploreSeconds accumulates the optimization value (by convention,
	// seconds) spent re-timing alternatives — the exploration budget's cost.
	ExploreSeconds float64 `json:"explore_seconds"`
	// Mismatches counts explored observations whose observed-best variant
	// differed from the model's prediction.
	Mismatches int64 `json:"mismatches"`
	// Windows counts completed drift-detector windows.
	Windows int64 `json:"windows"`
	// LastMismatchRate / LastRegret are the most recently closed window's
	// mismatch rate and mean relative regret.
	LastMismatchRate float64 `json:"last_mismatch_rate"`
	LastRegret       float64 `json:"last_regret"`
	// Drifts counts sustained-drift detections (hysteresis satisfied).
	Drifts int64 `json:"drifts"`
	// Retrains counts background retraining runs started.
	Retrains int64 `json:"retrains"`
	// RetrainsDeferred counts drift windows where retraining was deferred
	// for lack of labelled samples.
	RetrainsDeferred int64 `json:"retrains_deferred"`
	// Swaps counts accepted candidates hot-swapped into the model slot.
	Swaps int64 `json:"swaps"`
	// Rollbacks counts candidates rejected on the holdout (incumbent kept).
	Rollbacks int64 `json:"rollbacks"`
	// ModelVersion is the stamped version of the currently installed model
	// (0 when unstamped or uninstalled).
	ModelVersion int `json:"model_version"`
	// State is the drift state machine's current state ("healthy",
	// "drifting" or "retraining").
	State string `json:"state"`
	// Paused reports whether the engine is currently paused.
	Paused bool `json:"paused"`
}

// String renders a one-line human-readable snapshot.
func (s AdaptStats) String() string {
	return fmt.Sprintf(
		"adapt: state=%s v%d calls=%d sampled=%d explored=%d mismatch=%.1f%% regret=%.3f windows=%d drifts=%d retrains=%d swaps=%d rollbacks=%d",
		s.State, s.ModelVersion, s.Calls, s.Sampled, s.Explored,
		100*s.LastMismatchRate, s.LastRegret, s.Windows, s.Drifts, s.Retrains, s.Swaps, s.Rollbacks)
}

// String renders a one-line human-readable snapshot.
func (s CallStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "calls: %d (fallbacks=%d value=%.4g featsecs=%.4g", s.Calls, s.DefaultFallbacks, s.TotalValue, s.FeatureSeconds)
	if s.Panics+s.Timeouts+s.Fallbacks+s.Quarantined+s.Recoveries > 0 {
		fmt.Fprintf(&b, " panics=%d timeouts=%d failhops=%d trips=%d recoveries=%d",
			s.Panics, s.Timeouts, s.Fallbacks, s.Quarantined, s.Recoveries)
	}
	if s.MemoHits+s.CompiledHits+s.ExactFallbacks > 0 {
		fmt.Fprintf(&b, " memo=%d compiled=%d exact=%d", s.MemoHits, s.CompiledHits, s.ExactFallbacks)
	}
	b.WriteString(")")
	return b.String()
}
