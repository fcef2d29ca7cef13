// Drift detection: a windowed mismatch-rate / regret detector with
// thresholds and hysteresis, driving the sampling → drift → retrain →
// swap/rollback state machine of the adaptation engine.
//
// The detector is deliberately a pure, lock-free state machine over explored
// observations — the Engine serializes access and executes the side effects
// (retraining, hot-swap) the verdicts ask for — so its transitions can be
// unit-tested without a CodeVariant or a classifier.
package online

import "fmt"

// State is the adaptation engine's drift state.
type State int32

const (
	// StateHealthy: the installed model matches the observed input
	// distribution (mismatch/regret below thresholds).
	StateHealthy State = iota
	// StateDrifting: sustained drift detected (hysteresis satisfied); the
	// engine is accumulating labelled samples toward a retrain.
	StateDrifting
	// StateRetraining: a background retrain is in flight.
	StateRetraining
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDrifting:
		return "drifting"
	case StateRetraining:
		return "retraining"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// Verdict is what the detector tells the engine after one explored
// observation.
type Verdict struct {
	// WindowClosed reports that this observation completed a window;
	// MismatchRate / Regret / Bad describe it.
	WindowClosed bool
	MismatchRate float64
	Regret       float64
	Bad          bool
	// DriftDetected fires once per sustained-drift episode, when the bad
	// streak reaches the hysteresis.
	DriftDetected bool
	// Recovered fires once after a swap, when the good streak reaches the
	// recovery hysteresis — the post-swap mismatch rate has stayed below the
	// thresholds long enough to call the episode closed.
	Recovered bool
	// WantRetrain asks the engine to start a retrain now (state is Drifting,
	// no cooldown pending). The engine still gates on sample availability
	// and on whether a retrain is already in flight.
	WantRetrain bool
	// StreakStart is the labelled-observation sequence number at which the
	// current bad streak began — the retrain corpus is every reservoir
	// sample at or after it.
	StreakStart int64
}

// detector accumulates explored observations into tumbling windows and runs
// the drift state machine. Not safe for concurrent use; the Engine guards it.
type detector struct {
	// Configuration (copied from the normalized Policy).
	window            int
	mismatchThreshold float64
	regretThreshold   float64
	driftWindows      int
	recoveryWindows   int
	cooldownWindows   int

	state State

	// Current window accumulation.
	n          int
	mismatches int
	regretSum  float64
	winStart   int64 // labelled seq of the window's first observation

	// Streak / hysteresis bookkeeping.
	badStreak   int
	goodStreak  int
	cooldown    int   // windows left before drift may (re-)trigger a retrain
	streakStart int64 // labelled seq where the current bad streak began

	recoveredPending bool

	// Rolling outputs.
	lastMismatch float64
	lastRegret   float64
	windows      int64
	drifts       int64
}

func newDetector(p Policy) *detector {
	return &detector{
		window:            p.Window,
		mismatchThreshold: p.MismatchThreshold,
		regretThreshold:   p.RegretThreshold,
		driftWindows:      p.DriftWindows,
		recoveryWindows:   p.RecoveryWindows,
		cooldownWindows:   p.CooldownWindows,
		state:             StateHealthy,
	}
}

// observe feeds one explored observation (its labelled sequence number,
// whether the predicted variant missed the observed best, and the relative
// regret of the executed variant) into the current window.
func (d *detector) observe(seq int64, mismatch bool, regret float64) Verdict {
	if d.n == 0 {
		d.winStart = seq
	}
	d.n++
	if mismatch {
		d.mismatches++
	}
	d.regretSum += regret
	if d.n < d.window {
		return Verdict{}
	}
	return d.closeWindow()
}

// closeWindow tumbles the window and advances the state machine.
func (d *detector) closeWindow() Verdict {
	v := Verdict{WindowClosed: true}
	v.MismatchRate = float64(d.mismatches) / float64(d.n)
	v.Regret = d.regretSum / float64(d.n)
	v.Bad = v.MismatchRate >= d.mismatchThreshold || v.Regret >= d.regretThreshold
	d.lastMismatch, d.lastRegret = v.MismatchRate, v.Regret
	d.windows++

	if v.Bad {
		if d.badStreak == 0 {
			d.streakStart = d.winStart
		}
		d.badStreak++
		d.goodStreak = 0
	} else {
		d.goodStreak++
		d.badStreak = 0
		if d.recoveredPending && d.goodStreak >= d.recoveryWindows {
			d.recoveredPending = false
			v.Recovered = true
		}
		if d.state == StateDrifting && d.goodStreak >= d.recoveryWindows {
			// False alarm (or the drift reverted on its own): stand down
			// without spending a retrain.
			d.state = StateHealthy
		}
	}
	if d.cooldown > 0 {
		d.cooldown--
	}

	if d.state == StateHealthy && d.cooldown == 0 && d.badStreak >= d.driftWindows {
		d.state = StateDrifting
		d.drifts++
		v.DriftDetected = true
	}
	if d.state == StateDrifting && d.cooldown == 0 {
		v.WantRetrain = true
		v.StreakStart = d.streakStart
	}

	// Reset the window accumulation.
	d.n, d.mismatches, d.regretSum = 0, 0, 0
	return v
}

// onRetrainStart marks a retrain in flight.
func (d *detector) onRetrainStart() { d.state = StateRetraining }

// onSwap records an accepted candidate hot-swap: the episode closes, a
// cooldown suppresses immediate re-triggering, and the detector watches for
// the recovery hysteresis. The partially filled window is discarded so
// post-swap measurements are not polluted by pre-swap observations.
func (d *detector) onSwap() {
	d.state = StateHealthy
	d.badStreak, d.goodStreak = 0, 0
	d.cooldown = d.cooldownWindows
	d.recoveredPending = true
	d.n, d.mismatches, d.regretSum = 0, 0, 0
}

// onRollback records a rejected candidate: drift persists, so the detector
// stays in StateDrifting but backs off for the cooldown before asking for
// another retrain (by then more labelled samples have accumulated).
func (d *detector) onRollback() {
	d.state = StateDrifting
	d.cooldown = d.cooldownWindows
}

// onRetrainFailed records a retrain that errored out; treated like a
// rollback (drift persists, back off before retrying).
func (d *detector) onRetrainFailed() { d.onRollback() }
