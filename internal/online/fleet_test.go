package online

import (
	"math"
	"sync"
	"testing"
)

func fleetPolicy() Policy {
	p := DefaultPolicy(1)
	p.Window = 5
	return p
}

// TestFleetDetectorDriftAndRecovery drives pooled samples through the full
// state machine: healthy windows, sustained mismatch trips drift after the
// hysteresis, and the retrain/swap lifecycle resets it.
func TestFleetDetectorDriftAndRecovery(t *testing.T) {
	f := NewFleetDetector(fleetPolicy())
	good := RemoteSample{Features: []float64{1}, Times: []float64{1, 2}, Predicted: 0}
	bad := RemoteSample{Features: []float64{9}, Times: []float64{5, 1}, Predicted: 0}

	for i := 0; i < 5; i++ {
		if v := f.Ingest(good); v.DriftDetected {
			t.Fatal("healthy window flagged drift")
		}
	}
	if st := f.State(); st != StateHealthy {
		t.Fatalf("state after healthy window: %v", st)
	}

	drifted := false
	for i := 0; i < 10; i++ {
		if v := f.Ingest(bad); v.DriftDetected {
			drifted = true
		}
	}
	if !drifted {
		t.Fatal("two fully-mismatched windows did not trip drift")
	}
	if st := f.State(); st != StateDrifting {
		t.Fatalf("state after drift: %v", st)
	}

	f.OnRetrainStart()
	if st := f.State(); st != StateRetraining {
		t.Fatalf("state after retrain start: %v", st)
	}
	f.OnSwap()
	if st := f.State(); st != StateHealthy {
		t.Fatalf("state after swap: %v", st)
	}

	stats := f.Stats()
	if stats.Samples != 15 || stats.Mismatches != 10 || stats.Drifts != 1 || stats.Windows != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if f.Seq() != 15 {
		t.Fatalf("seq = %d, want 15", f.Seq())
	}
}

// TestFleetDetectorSkipsUnevaluableSamples: samples with no prediction or no
// feasible variant advance nothing.
func TestFleetDetectorSkipsUnevaluableSamples(t *testing.T) {
	f := NewFleetDetector(fleetPolicy())
	inf := math.Inf(1)
	for _, s := range []RemoteSample{
		{Times: []float64{1, 2}, Predicted: -1},    // no model installed
		{Times: []float64{inf, inf}, Predicted: 0}, // nothing feasible
	} {
		if v := f.Ingest(s); v.WindowClosed {
			t.Fatalf("unevaluable sample %+v closed a window", s)
		}
	}
	if st := f.Stats(); st.Samples != 0 {
		t.Fatalf("unevaluable samples counted: %+v", st)
	}
}

// TestFleetDetectorStandInPickTripsDrift: a client that could not time its
// predicted variant pushes a finite stand-in cost for it. That pick misses
// the observed best, and the mismatch, sustained over two windows, trips
// drift; the stand-in's regret is reported as measured.
func TestFleetDetectorStandInPickTripsDrift(t *testing.T) {
	f := NewFleetDetector(fleetPolicy())
	s := RemoteSample{Times: []float64{1, 1e6}, Predicted: 1}
	drifted := false
	for i := 0; i < 10; i++ {
		if v := f.Ingest(s); v.DriftDetected {
			drifted = true
		}
	}
	if !drifted {
		t.Fatal("stand-in-pick windows did not trip drift")
	}
	if st := f.Stats(); st.LastMismatchRate != 1 || st.LastRegret != 1e6-1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFleetDetectorConcurrentIngest exercises pooled ingestion from many
// goroutines under -race.
func TestFleetDetectorConcurrentIngest(t *testing.T) {
	f := NewFleetDetector(fleetPolicy())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				pred := 0
				if (g+i)%2 == 0 {
					pred = 1
				}
				f.Ingest(RemoteSample{Times: []float64{1, 2}, Predicted: pred})
				f.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := f.Stats(); st.Samples != 800 {
		t.Fatalf("samples = %d, want 800", st.Samples)
	}
}

// TestRemoteSampleBest covers the argmin helper.
func TestRemoteSampleBest(t *testing.T) {
	if b, v := (RemoteSample{Times: []float64{3, 1, 2}}).Best(); b != 1 || v != 1 {
		t.Fatalf("Best = (%d, %v)", b, v)
	}
	if b, _ := (RemoteSample{}).Best(); b != -1 {
		t.Fatalf("empty Best = %d, want -1", b)
	}
}
