// Fleet-wide drift detection: the same windowed mismatch-rate state
// machine the per-process adaptation engine runs, exported for a registry
// daemon that pools observation samples pushed by many client processes.
//
// A single client sees only its own slice of the input distribution; the
// Nitro server aggregates samples across the fleet, so drift that no single
// instance observes often enough to trip its local detector still trips the
// fleet detector ("On-line Application Autotuning Exploiting Ensemble
// Models" — pooling runtime knowledge across instances). The FleetDetector
// wraps the pure detector with a mutex (remote ingestion is concurrent) and
// computes mismatch/regret from the raw pushed sample, so clients ship data,
// not verdicts.
package online

import (
	"math"
	"sync"
)

// RemoteSample is one observation pushed by a remote client: the input's
// feature vector, the per-variant timings it observed, and the variant index
// the client's installed model predicted. Every feature and time is finite:
// neither JSON nor the binary sample frame can carry NaN or ±Inf, and the
// registry refuses them from in-process callers too. For a variant it could
// not time (vetoed, quarantined or failed — +Inf in autotuner.Observation) a
// client either sends a finite stand-in, such as a cost above every variant
// it did time, or drops the sample.
type RemoteSample struct {
	// Features is the unscaled feature vector.
	Features []float64 `json:"features"`
	// Times holds the observed optimization value of every variant.
	Times []float64 `json:"times"`
	// Predicted is the variant index the client's model chose, in
	// [0, len(Times)), or -1 when the client had no model installed (such
	// samples still label the corpus but carry no mismatch signal). The
	// registry refuses a batch holding any other value.
	Predicted int `json:"predicted"`
}

// Best returns the argmin variant of the sample's timings and its value
// (-1, +Inf when every variant is infeasible).
func (s RemoteSample) Best() (int, float64) {
	best, bestV := -1, math.Inf(1)
	for i, t := range s.Times {
		if t < bestV {
			best, bestV = i, t
		}
	}
	return best, bestV
}

// FleetDetector runs the drift state machine over samples pooled from many
// client processes. Safe for concurrent use.
type FleetDetector struct {
	mu  sync.Mutex
	det *detector
	seq int64

	samples    int64
	mismatches int64
}

// NewFleetDetector builds a detector from the policy's Window and
// MismatchThreshold (the sampling and retrain fields are ignored — the
// server owns those decisions).
func NewFleetDetector(pol Policy) *FleetDetector {
	pol = pol.normalized()
	return &FleetDetector{det: newDetector(pol)}
}

// Ingest feeds one pushed sample into the current window and returns the
// detector's verdict (zero-valued until a window closes). Samples with no
// evaluable best or no prediction advance nothing.
func (f *FleetDetector) Ingest(s RemoteSample) Verdict {
	best, bestV := s.Best()
	if best < 0 || s.Predicted < 0 {
		return Verdict{}
	}
	mismatch := best != s.Predicted
	regret := 0.0
	if s.Predicted < len(s.Times) {
		if pv := s.Times[s.Predicted]; !math.IsInf(pv, 1) && bestV > 0 && pv > bestV {
			regret = (pv - bestV) / bestV
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.samples++
	if mismatch {
		f.mismatches++
	}
	return f.det.observe(f.seq, mismatch, regret)
}

// Seq returns the ingestion sequence number of the most recent sample.
func (f *FleetDetector) Seq() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// State returns the drift state machine's current state.
func (f *FleetDetector) State() State {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.det.state
}

// FleetStats is a point-in-time snapshot of a fleet detector.
type FleetStats struct {
	Samples          int64   `json:"samples"`
	Mismatches       int64   `json:"mismatches"`
	Windows          int64   `json:"windows"`
	Drifts           int64   `json:"drifts"`
	LastMismatchRate float64 `json:"last_mismatch_rate"`
	LastRegret       float64 `json:"last_regret"`
	State            string  `json:"state"`
}

// Stats snapshots the detector's counters.
func (f *FleetDetector) Stats() FleetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FleetStats{
		Samples:          f.samples,
		Mismatches:       f.mismatches,
		Windows:          f.det.windows,
		Drifts:           f.det.drifts,
		LastMismatchRate: f.det.lastMismatch,
		LastRegret:       f.det.lastRegret,
		State:            f.det.state.String(),
	}
}

// OnRetrainStart / OnSwap / OnRollback / OnRetrainFailed forward the
// registry's retrain lifecycle into the state machine, exactly as the
// in-process engine drives its private detector.
func (f *FleetDetector) OnRetrainStart() { f.locked(func() { f.det.onRetrainStart() }) }
func (f *FleetDetector) OnSwap()         { f.locked(func() { f.det.onSwap() }) }
func (f *FleetDetector) OnRollback()     { f.locked(func() { f.det.onRollback() }) }
func (f *FleetDetector) OnRetrainFailed() {
	f.locked(func() { f.det.onRetrainFailed() })
}

func (f *FleetDetector) locked(fn func()) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn()
}
