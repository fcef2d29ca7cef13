package autotuner

import (
	"context"
	"errors"
	"testing"

	"nitro/internal/core"
)

// obsFromSuite converts suite instances to retrain observations with
// monotonically increasing sequence numbers.
func obsFromSuite(instances []Instance, startSeq int64) []Observation {
	out := make([]Observation, len(instances))
	for i, in := range instances {
		out[i] = Observation{Seq: startSeq + int64(i), Features: in.Features, Times: in.Times}
	}
	return out
}

// swapTimes returns instances whose per-variant timings are rotated by one
// slot: the feature→best-variant mapping changes while the features stay,
// which is exactly a concept drift from the selector's point of view.
func swapTimes(instances []Instance) []Instance {
	out := make([]Instance, len(instances))
	for i, in := range instances {
		rot := make([]float64, len(in.Times))
		for j := range in.Times {
			rot[j] = in.Times[(j+1)%len(in.Times)]
		}
		cp := in
		cp.Times = rot
		out[i] = cp
	}
	return out
}

// retrainFixture builds a live replay CodeVariant over the synthetic suite
// with an installed v1 model, returning the tuner bound to it.
func retrainFixture(t *testing.T) (*Tuner[Instance], *Suite, *core.Context) {
	t.Helper()
	s := syntheticSuite(120, 60, 7)
	model, _, err := Train(s.Train, TrainOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cx := core.NewContext()
	cv, err := ReplayVariant(cx, s, core.DefaultPolicy(s.Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := cx.SetModel(s.Name, model); err != nil {
		t.Fatal(err)
	}
	return &Tuner[Instance]{CV: cv, Opts: TrainOptions{Seed: 1}}, s, cx
}

// TestRetrainFromObservationsAcceptsOnDrift: observations from a drifted
// (time-rotated) distribution must produce a candidate that beats the stale
// incumbent on the temporal holdout and is stamped version 2.
func TestRetrainFromObservationsAcceptsOnDrift(t *testing.T) {
	tuner, s, cx := retrainFixture(t)
	incumbent, _ := cx.Model(s.Name)
	if incumbent.Version() != 1 {
		t.Fatalf("offline model version = %d, want 1", incumbent.Version())
	}
	drifted := swapTimes(s.Train)
	res, err := tuner.RetrainFromObservations(context.Background(),
		obsFromSuite(drifted, 100), incumbent,
		RetrainOptions{TrainOptions: tuner.Opts, HoldoutFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("drifted candidate rejected: %+v", res)
	}
	if res.Model.Version() != 2 {
		t.Fatalf("candidate version = %d, want 2", res.Model.Version())
	}
	if res.Model.Meta.CreatedAt.IsZero() {
		t.Fatal("retrained model should stamp CreatedAt")
	}
	if res.CandidatePerf <= res.IncumbentPerf {
		t.Fatalf("candidate perf %.3f should exceed stale incumbent %.3f",
			res.CandidatePerf, res.IncumbentPerf)
	}
	if res.CandidateMismatch >= res.IncumbentMismatch {
		t.Fatalf("candidate mismatch %.3f should undercut incumbent %.3f",
			res.CandidateMismatch, res.IncumbentMismatch)
	}
	if res.TrainSize+res.HoldoutSize != len(drifted) {
		t.Fatalf("split %d+%d != %d", res.TrainSize, res.HoldoutSize, len(drifted))
	}
	if res.Model.Compiled == nil {
		t.Fatal("accepted candidate was not distilled")
	}
	// The candidate must install cleanly through the validated hot-swap path.
	if err := cx.SetModel(s.Name, res.Model); err != nil {
		t.Fatalf("hot-swap of accepted candidate: %v", err)
	}
}

// TestRetrainFromObservationsRejectsWorseCandidate: when the observations
// match the incumbent's training distribution, a candidate trained on a
// small slice cannot beat it by the required margin — the rollback path.
func TestRetrainFromObservationsRejectsWorseCandidate(t *testing.T) {
	tuner, s, cx := retrainFixture(t)
	incumbent, _ := cx.Model(s.Name)
	// Same distribution as the incumbent saw, tiny corpus, and a margin the
	// candidate cannot clear against an incumbent trained on 120 instances.
	res, err := tuner.RetrainFromObservations(context.Background(),
		obsFromSuite(s.Train[:12], 0), incumbent,
		RetrainOptions{TrainOptions: tuner.Opts, HoldoutFraction: 0.5, MinImprovement: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatalf("undistinguished candidate accepted over incumbent: %+v", res)
	}
	if res.Model == nil || res.Model.Version() != 2 {
		t.Fatalf("rejected candidate should still be returned stamped v2, got %+v", res.Model)
	}
	// Only an accepted candidate is distilled; the holdout judged this one
	// exact, and it stays exact.
	if res.Model.Compiled != nil {
		t.Fatal("rejected candidate carries a compiled program")
	}
}

// TestRetrainFromObservationsIncremental: the BvSB incremental path spends
// oracle queries and still yields an accepted candidate under drift.
func TestRetrainFromObservationsIncremental(t *testing.T) {
	tuner, s, cx := retrainFixture(t)
	incumbent, _ := cx.Model(s.Name)
	drifted := swapTimes(s.Train)
	res, err := tuner.RetrainFromObservations(context.Background(),
		obsFromSuite(drifted, 0), incumbent,
		RetrainOptions{TrainOptions: tuner.Opts, Incremental: true, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries <= 0 {
		t.Fatalf("incremental retrain spent %d queries, want > 0", res.Queries)
	}
	if !res.Accepted {
		t.Fatalf("incremental drifted candidate rejected: %+v", res)
	}
}

// TestRetrainFromObservationsEdgeCases pins the error paths: nil CV, too few
// observations, cancelled context, and the no-incumbent bootstrap.
func TestRetrainFromObservationsEdgeCases(t *testing.T) {
	tuner, s, _ := retrainFixture(t)

	var nilTuner Tuner[Instance]
	if _, err := nilTuner.RetrainFromObservations(context.Background(), nil, nil, RetrainOptions{}); err == nil {
		t.Fatal("nil CV should error")
	}
	if _, err := tuner.RetrainFromObservations(context.Background(),
		obsFromSuite(s.Train[:1], 0), nil, RetrainOptions{}); !errors.Is(err, errNoObservations) {
		t.Fatalf("1 observation: err = %v, want errNoObservations", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tuner.RetrainFromObservations(ctx,
		obsFromSuite(s.Train[:20], 0), nil, RetrainOptions{TrainOptions: tuner.Opts}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v", err)
	}
	// No incumbent: any trainable candidate bootstraps (Accepted).
	res, err := tuner.RetrainFromObservations(context.Background(),
		obsFromSuite(s.Train[:20], 0), nil, RetrainOptions{TrainOptions: tuner.Opts})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.Model.Version() != 1 {
		t.Fatalf("bootstrap retrain: accepted=%v version=%d", res.Accepted, res.Model.Version())
	}
}
