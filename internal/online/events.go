// Event timeline: every state transition the adaptation engine makes is
// recorded as an Event, so tests and the replay harness can assert the exact
// sequence (and the CLI can print it) — determinism is a feature, not a
// debugging aid.
package online

import "fmt"

// EventKind labels one adaptation timeline entry.
type EventKind string

const (
	// EventWindow: a drift-detector window closed (rates in the event).
	EventWindow EventKind = "window"
	// EventDrift: sustained drift declared (hysteresis satisfied).
	EventDrift EventKind = "drift"
	// EventRecovered: post-swap mismatch stayed healthy long enough.
	EventRecovered EventKind = "recovered"
	// EventDeferred: a retrain was wanted but too few drifted samples exist.
	EventDeferred EventKind = "retrain-deferred"
	// EventRetrain: a retrain launched.
	EventRetrain EventKind = "retrain"
	// EventRetrainFailed: the retrain errored (or the install did).
	EventRetrainFailed EventKind = "retrain-failed"
	// EventRollback: the candidate lost the holdout; incumbent kept.
	EventRollback EventKind = "rollback"
	// EventSwap: the candidate won and was hot-swapped in.
	EventSwap EventKind = "swap"
	// EventPaused / EventResumed: operator toggles.
	EventPaused  EventKind = "paused"
	EventResumed EventKind = "resumed"
	// EventBakeoffPromote is no longer emitted; the perfbench benchmark still uses it.
	EventBakeoffPromote EventKind = "bakeoff-promote"
)

// Event is one adaptation timeline entry.
type Event struct {
	// Seq is the event's position in the timeline (0-based).
	Seq int `json:"seq"`
	// Call is the engine's observed-call count when the event fired.
	Call int64 `json:"call"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// MismatchRate / Regret carry the closing window's rates for window,
	// drift and recovered events (0 otherwise).
	MismatchRate float64 `json:"mismatch_rate"`
	Regret       float64 `json:"regret"`
	// Version is the model version a swap installed (or a rollback kept).
	Version int `json:"version"`
	// Detail is a deterministic human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// String renders the event as one deterministic timeline line, e.g.
//
//	[call 000412] drift: mismatch=48.0% regret=0.312 (sustained over 2 windows)
func (ev Event) String() string {
	s := fmt.Sprintf("[call %06d] %s", ev.Call, ev.Kind)
	switch ev.Kind {
	case EventWindow, EventDrift, EventRecovered:
		s += fmt.Sprintf(": mismatch=%.1f%% regret=%.3f", 100*ev.MismatchRate, ev.Regret)
	}
	if ev.Detail != "" {
		s += " (" + ev.Detail + ")"
	}
	return s
}
