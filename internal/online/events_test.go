package online

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestEventStringGoldens pins the exact one-line rendering of every event
// kind. These strings are the replay harness's byte-identity surface and the
// CLI's timeline output — changing them is a breaking change, so the test is
// a golden, not a property.
func TestEventStringGoldens(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Seq: 0, Call: 412, Kind: EventDrift, MismatchRate: 0.48, Regret: 0.312, Detail: "sustained over 2 windows"},
			"[call 000412] drift: mismatch=48.0% regret=0.312 (sustained over 2 windows)",
		},
		{
			Event{Seq: 1, Call: 64, Kind: EventWindow, MismatchRate: 0.25, Regret: 0.05},
			"[call 000064] window: mismatch=25.0% regret=0.050",
		},
		{
			Event{Seq: 2, Call: 900, Kind: EventRecovered, MismatchRate: 0.0625, Regret: 0.001, Detail: "2 good windows"},
			"[call 000900] recovered: mismatch=6.2% regret=0.001 (2 good windows)",
		},
		{
			Event{Seq: 3, Call: 500, Kind: EventDeferred, Detail: "12/64 samples"},
			"[call 000500] retrain-deferred (12/64 samples)",
		},
		{
			Event{Seq: 4, Call: 640, Kind: EventRetrain, Detail: "64 samples"},
			"[call 000640] retrain (64 samples)",
		},
		{
			Event{Seq: 5, Call: 644, Kind: EventRetrainFailed, Detail: "train: singular kernel"},
			"[call 000644] retrain-failed (train: singular kernel)",
		},
		{
			Event{Seq: 6, Call: 700, Kind: EventRollback, Version: 3, Detail: "holdout 0.41 <= incumbent 0.44"},
			"[call 000700] rollback (holdout 0.41 <= incumbent 0.44)",
		},
		{
			Event{Seq: 7, Call: 702, Kind: EventSwap, Version: 4, Detail: "holdout 0.58 > incumbent 0.44"},
			"[call 000702] swap (holdout 0.58 > incumbent 0.44)",
		},
		{
			Event{Seq: 8, Call: 703, Kind: EventPaused},
			"[call 000703] paused",
		},
		{
			Event{Seq: 9, Call: 704, Kind: EventResumed},
			"[call 000704] resumed",
		},
	}
	for _, c := range cases {
		if got := c.ev.String(); got != c.want {
			t.Errorf("Event.String() =\n  %q\nwant\n  %q", got, c.want)
		}
	}
}

// TestEventJSONGolden pins the wire form: snake_case keys, detail omitted
// when empty, and a lossless round-trip through UnmarshalJSON.
func TestEventJSONGolden(t *testing.T) {
	ev := Event{Seq: 3, Call: 412, Kind: EventDrift, MismatchRate: 0.48, Regret: 0.312, Version: 2, Detail: "sustained over 2 windows"}
	b, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seq":3,"call":412,"kind":"drift","mismatch_rate":0.48,"regret":0.312,"version":2,"detail":"sustained over 2 windows"}`
	if string(b) != want {
		t.Errorf("MarshalJSON =\n  %s\nwant\n  %s", b, want)
	}

	var back Event
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != ev {
		t.Errorf("round-trip = %+v, want %+v", back, ev)
	}

	// detail is omitempty: a bare event has no "detail" key.
	b, err = json.Marshal(Event{Seq: 0, Call: 1, Kind: EventPaused})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "detail") {
		t.Errorf("empty Detail not omitted: %s", b)
	}
	if want := `{"seq":0,"call":1,"kind":"paused","mismatch_rate":0,"regret":0,"version":0}`; string(b) != want {
		t.Errorf("bare event JSON = %s, want %s", b, want)
	}
}

// TestStateStringGoldens pins the State renderings the stats snapshot, the
// metrics gauge help text and the CLI all rely on.
func TestStateStringGoldens(t *testing.T) {
	cases := []struct {
		s    State
		want string
	}{
		{StateHealthy, "healthy"},
		{StateDrifting, "drifting"},
		{StateRetraining, "retraining"},
		{State(7), "state(7)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("State(%d).String() = %q, want %q", int32(c.s), got, c.want)
		}
	}
}

// TestDetectorStateTransitionGolden drives the detector through a full drift
// episode and pins the exact state trajectory as a golden string: healthy
// windows, sustained drift, retrain start, swap, and recovery back to
// healthy. This is the satellite's drift-state transition golden — the
// sequence must be deterministic, not merely eventually correct.
func TestDetectorStateTransitionGolden(t *testing.T) {
	d := newDetector(detPolicy()) // window=4; drift, recovery and cooldown are 2
	var seq int64
	var trail []string
	record := func(tag string) {
		trail = append(trail, fmt.Sprintf("%s:%s", tag, d.state))
	}

	record("start")
	feed(d, &seq, 4, false, 0.1) // good window
	record("good-window")
	feed(d, &seq, 4, true, 0.9) // bad window 1 of 2 — not drift yet
	record("bad-window-1")
	feed(d, &seq, 4, true, 0.9) // bad window 2 — hysteresis satisfied
	record("bad-window-2")
	d.onRetrainStart()
	record("retrain-start")
	d.onSwap()
	record("swap")
	feed(d, &seq, 4, false, 0.1) // good window 1 of 2 post-swap
	record("good-window-1")
	feed(d, &seq, 4, false, 0.1) // good window 2 — recovered
	record("good-window-2")

	got := strings.Join(trail, " ")
	want := "start:healthy good-window:healthy bad-window-1:healthy " +
		"bad-window-2:drifting retrain-start:retraining swap:healthy " +
		"good-window-1:healthy good-window-2:healthy"
	if got != want {
		t.Errorf("state trajectory =\n  %s\nwant\n  %s", got, want)
	}
}

// TestDetectorRollbackTransitionGolden pins the rollback path: a failed
// candidate returns the machine to drifting (the episode is still open), and
// a retrain failure behaves identically.
func TestDetectorRollbackTransitionGolden(t *testing.T) {
	for _, fail := range []struct {
		name string
		f    func(d *detector)
	}{
		{"rollback", func(d *detector) { d.onRollback() }},
		{"retrain-failed", func(d *detector) { d.onRetrainFailed() }},
	} {
		t.Run(fail.name, func(t *testing.T) {
			d := newDetector(detPolicy())
			var seq int64
			feed(d, &seq, 8, true, 0.9) // two bad windows: drift
			if d.state != StateDrifting {
				t.Fatalf("pre: state = %v, want drifting", d.state)
			}
			d.onRetrainStart()
			if d.state != StateRetraining {
				t.Fatalf("state = %v, want retraining", d.state)
			}
			fail.f(d)
			if d.state != StateDrifting {
				t.Errorf("post-%s state = %v, want drifting", fail.name, d.state)
			}
		})
	}
}
