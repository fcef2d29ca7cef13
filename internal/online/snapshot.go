package online

// Detector state snapshot/restore: the registry daemon journals fleet
// detector state across restarts, so a crash does not reset windows,
// streaks or cooldowns that took the whole fleet's traffic to accumulate.
// The snapshot is a plain JSON value — the journal owns framing and
// integrity checking.

// FleetSnapshot is the serializable state of a FleetDetector: the pooled
// counters plus the drift state machine's window accumulation, streak
// bookkeeping and rolling outputs. Configuration (window sizes,
// thresholds) is NOT part of the snapshot — it is re-derived from the
// daemon's policy on restore, so a config change between restarts wins.
type FleetSnapshot struct {
	Seq        int64 `json:"seq"`
	Samples    int64 `json:"samples"`
	Mismatches int64 `json:"mismatches"`

	State       State   `json:"state"`
	WindowN     int     `json:"window_n"`
	WindowMiss  int     `json:"window_mismatches"`
	RegretSum   float64 `json:"regret_sum"`
	WinStart    int64   `json:"win_start"`
	BadStreak   int     `json:"bad_streak"`
	GoodStreak  int     `json:"good_streak"`
	Cooldown    int     `json:"cooldown"`
	StreakStart int64   `json:"streak_start"`
	Recovered   bool    `json:"recovered_pending"`

	LastMismatch float64 `json:"last_mismatch"`
	LastRegret   float64 `json:"last_regret"`
	Windows      int64   `json:"windows"`
	Drifts       int64   `json:"drifts"`
}

// Snapshot captures the detector's full mutable state.
func (f *FleetDetector) Snapshot() FleetSnapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := f.det
	return FleetSnapshot{
		Seq:          f.seq,
		Samples:      f.samples,
		Mismatches:   f.mismatches,
		State:        d.state,
		WindowN:      d.n,
		WindowMiss:   d.mismatches,
		RegretSum:    d.regretSum,
		WinStart:     d.winStart,
		BadStreak:    d.badStreak,
		GoodStreak:   d.goodStreak,
		Cooldown:     d.cooldown,
		StreakStart:  d.streakStart,
		Recovered:    d.recoveredPending,
		LastMismatch: d.lastMismatch,
		LastRegret:   d.lastRegret,
		Windows:      d.windows,
		Drifts:       d.drifts,
	}
}

// Restore overwrites the detector's mutable state from a snapshot taken by
// Snapshot. Out-of-range state values fall back to StateHealthy rather
// than poisoning the machine with an unknown state.
func (f *FleetDetector) Restore(s FleetSnapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq = s.Seq
	f.samples = s.Samples
	f.mismatches = s.Mismatches
	d := f.det
	d.state = s.State
	if d.state < StateHealthy || d.state > StateRetraining {
		d.state = StateHealthy
	}
	d.n = s.WindowN
	d.mismatches = s.WindowMiss
	d.regretSum = s.RegretSum
	d.winStart = s.WinStart
	d.badStreak = s.BadStreak
	d.goodStreak = s.GoodStreak
	d.cooldown = s.Cooldown
	d.streakStart = s.StreakStart
	d.recoveredPending = s.Recovered
	d.lastMismatch = s.LastMismatch
	d.lastRegret = s.LastRegret
	d.windows = s.Windows
	d.drifts = s.Drifts
}
