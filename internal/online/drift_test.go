package online

import "testing"

// detPolicy is a small, fast detector configuration for unit tests.
func detPolicy() Policy {
	return Policy{Window: 4, MismatchThreshold: 0.5}.normalized()
}

// feed pushes n observations with the given mismatch flag and regret,
// returning the verdicts of the windows that closed.
func feed(d *detector, seq *int64, n int, mismatch bool, regret float64) []Verdict {
	var closed []Verdict
	for i := 0; i < n; i++ {
		*seq++
		if v := d.observe(*seq, mismatch, regret); v.WindowClosed {
			closed = append(closed, v)
		}
	}
	return closed
}

// TestDetectorWindowRates: windows tumble every Window observations and
// report the window's mismatch rate and mean regret.
func TestDetectorWindowRates(t *testing.T) {
	d := newDetector(detPolicy())
	var seq int64
	if v := d.observe(1, true, 0.8); v.WindowClosed {
		t.Fatal("window closed early")
	}
	seq = 1
	closed := feed(d, &seq, 3, false, 0.2)
	if len(closed) != 1 {
		t.Fatalf("closed %d windows, want 1", len(closed))
	}
	v := closed[0]
	if v.MismatchRate != 0.25 {
		t.Errorf("mismatch rate = %v, want 0.25", v.MismatchRate)
	}
	if v.Regret != (0.8+3*0.2)/4 {
		t.Errorf("regret = %v", v.Regret)
	}
	if v.Bad {
		t.Error("window below the mismatch threshold marked bad")
	}
	if d.state != StateHealthy {
		t.Errorf("state = %v", d.state)
	}
}

// TestDetectorRegretDecidesNothing: a window is bad exactly when its
// mismatch rate reaches the threshold. Regret, however large, is reported
// but neither marks a window bad nor keeps a mismatched one good.
func TestDetectorRegretDecidesNothing(t *testing.T) {
	d := newDetector(detPolicy())
	var seq int64
	for _, v := range feed(d, &seq, 12, false, 9) {
		if v.Bad || v.DriftDetected || v.Regret != 9 {
			t.Fatalf("regret-only window: %+v", v)
		}
	}
	if d.state != StateHealthy {
		t.Fatalf("regret alone moved the state to %v", d.state)
	}
	// Two of four mismatched reaches the 0.5 threshold at zero regret.
	var closed []Verdict
	for i := 0; i < 2; i++ {
		closed = append(closed, feed(d, &seq, 2, true, 0)...)
		closed = append(closed, feed(d, &seq, 2, false, 0)...)
	}
	if len(closed) != 2 || !closed[0].Bad || closed[0].MismatchRate != 0.5 || !closed[1].DriftDetected {
		t.Fatalf("mismatch-only windows: %+v", closed)
	}
}

// TestDetectorDriftHysteresis: one bad window is not drift; driftWindows
// consecutive bad windows are, and then every closed window asks for a
// retrain until the state machine moves on.
func TestDetectorDriftHysteresis(t *testing.T) {
	d := newDetector(detPolicy())
	var seq int64
	closed := feed(d, &seq, 4, true, 1)
	if closed[0].DriftDetected {
		t.Fatal("drift after a single bad window")
	}
	closed = feed(d, &seq, 4, true, 1)
	v := closed[0]
	if !v.DriftDetected || d.state != StateDrifting {
		t.Fatalf("no drift after %d bad windows: %+v state=%v", driftWindows, v, d.state)
	}
	if !v.WantRetrain {
		t.Fatal("drifting detector should want a retrain")
	}
	if v.StreakStart != 1 {
		t.Errorf("streak start = %d, want 1 (first obs of first bad window)", v.StreakStart)
	}
	// Subsequent bad windows keep asking but do not re-fire DriftDetected.
	closed = feed(d, &seq, 4, true, 1)
	if closed[0].DriftDetected {
		t.Error("DriftDetected re-fired mid-episode")
	}
	if !closed[0].WantRetrain {
		t.Error("drifting detector stopped asking for a retrain")
	}
	if d.drifts != 1 {
		t.Errorf("drifts = %d, want 1", d.drifts)
	}
}

// TestDetectorFalseAlarm: a drift episode that resolves on its own (good
// windows reach the recovery hysteresis before any retrain ran) stands the
// detector down without spending anything.
func TestDetectorFalseAlarm(t *testing.T) {
	d := newDetector(detPolicy())
	var seq int64
	feed(d, &seq, 8, true, 1) // 2 bad windows -> drifting
	if d.state != StateDrifting {
		t.Fatalf("state = %v, want drifting", d.state)
	}
	closed := feed(d, &seq, 8, false, 0) // 2 good windows
	if d.state != StateHealthy {
		t.Errorf("false alarm did not resolve: state = %v", d.state)
	}
	for _, v := range closed {
		if v.Recovered {
			t.Error("Recovered fired without a swap")
		}
	}
}

// TestDetectorSwapRecoveryAndCooldown: after a swap the detector returns to
// healthy, suppresses retrain re-triggering for the cooldown, and fires
// Recovered once the good streak reaches the recovery hysteresis.
func TestDetectorSwapRecoveryAndCooldown(t *testing.T) {
	d := newDetector(detPolicy())
	var seq int64
	feed(d, &seq, 8, true, 1)
	d.onRetrainStart()
	if d.state != StateRetraining {
		t.Fatalf("state = %v", d.state)
	}
	// Mid-window observations at swap time must be discarded.
	feed(d, &seq, 2, true, 1)
	d.onSwap()
	if d.n != 0 {
		t.Error("onSwap kept a partial window")
	}
	if d.state != StateHealthy {
		t.Fatalf("post-swap state = %v", d.state)
	}
	closed := feed(d, &seq, 8, false, 0)
	recovered := 0
	for _, v := range closed {
		if v.Recovered {
			recovered++
		}
	}
	if recovered != 1 {
		t.Errorf("Recovered fired %d times, want 1", recovered)
	}
	// A fresh bad streak during cooldown must not re-trigger drift until the
	// cooldown has elapsed (it elapsed during the two good windows above).
	closed = feed(d, &seq, 8, true, 1)
	if !closed[1].DriftDetected {
		t.Error("post-cooldown drift not re-detected")
	}
}

// TestDetectorRollbackCooldown: a rollback keeps the detector drifting but
// backs off asking for retrains for cooldownWindows windows.
func TestDetectorRollbackCooldown(t *testing.T) {
	d := newDetector(detPolicy())
	var seq int64
	feed(d, &seq, 8, true, 1)
	d.onRetrainStart()
	d.onRollback()
	if d.state != StateDrifting {
		t.Fatalf("post-rollback state = %v", d.state)
	}
	closed := feed(d, &seq, 8, true, 1) // 2 windows: cooldown 2 -> 0
	if closed[0].WantRetrain {
		t.Error("retrain requested during rollback cooldown")
	}
	if !closed[1].WantRetrain {
		t.Error("retrain not re-requested after cooldown")
	}
	// onRetrainFailed behaves like a rollback.
	d.onRetrainStart()
	d.onRetrainFailed()
	if d.state != StateDrifting || d.cooldown != cooldownWindows {
		t.Errorf("onRetrainFailed: state=%v cooldown=%d", d.state, d.cooldown)
	}
}

// TestStateString pins the state names used in stats and events.
func TestStateString(t *testing.T) {
	for want, s := range map[string]State{
		"healthy": StateHealthy, "drifting": StateDrifting, "retraining": StateRetraining,
	} {
		if s.String() != want {
			t.Errorf("%v.String() = %q", s, s.String())
		}
	}
	if State(42).String() != "state(42)" {
		t.Errorf("unknown state String = %q", State(42).String())
	}
}
