package client

// End-to-end registry protocol test, per the serving-architecture
// acceptance criteria: two clients register against one daemon, pull a
// byte-identical versioned model, push observations that trip fleet-wide
// drift detection, follow the resulting canary through fraction-gated
// promotion, and exercise rollback on an injected failing challenger.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/online"
	"nitro/internal/server"
)

type e2eInput struct{ X float64 }

const e2eFn = "select"

// slow stands in for +Inf in pushed observations (JSON cannot carry Inf);
// any variant this slow never labels a training instance.
const slow = 1000.0

// newFleetMember builds one deployed process: a context with a 3-variant
// function ("a" wins below 4.5, "b" above, "boom" always panics) and a
// poller reconciling it against the registry.
func newFleetMember(t *testing.T, c *Client) (*core.CodeVariant[e2eInput], *core.Context, *Poller) {
	t.Helper()
	cx := core.NewContext()
	cv := core.New[e2eInput](cx, core.DefaultPolicy(e2eFn))
	cv.AddVariant("a", func(in e2eInput) float64 { return 1 + in.X })
	cv.AddVariant("b", func(in e2eInput) float64 { return 10 - in.X })
	cv.AddVariant("boom", func(in e2eInput) float64 { panic("injected challenger failure") })
	if err := cv.SetDefault("a"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(core.Feature[e2eInput]{Name: "x", Eval: func(in e2eInput) float64 { return in.X }})
	return cv, cx, NewPoller(c, cx, e2eFn)
}

// seedSamples labels the original distribution: a wins below the boundary,
// b above, boom never.
func seedSamples(n int, predicted func(x float64) int) []online.RemoteSample {
	out := make([]online.RemoteSample, n)
	for i := range out {
		x := float64(i % 10)
		times := []float64{1, 2, slow}
		if x > 4.5 {
			times = []float64{2, 1, slow}
		}
		p := -1
		if predicted != nil {
			p = predicted(x)
		}
		out[i] = online.RemoteSample{Features: []float64{x}, Times: times, Predicted: p}
	}
	return out
}

// driftedSamples is the shifted distribution: b now wins everywhere, while
// the deployed model still predicts a for small x — sustained mismatch.
func driftedSamples(n int) []online.RemoteSample {
	out := make([]online.RemoteSample, n)
	for i := range out {
		x := float64(i % 5) // small inputs, where the v1 model says a
		out[i] = online.RemoteSample{Features: []float64{x}, Times: []float64{3, 1, slow}, Predicted: 0}
	}
	return out
}

func TestEndToEndCanaryLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e test")
	}
	ctx := context.Background()

	d, err := server.NewDaemon(server.Config{Registry: server.RegistryConfig{
		Tenants:           []server.TenantConfig{{Name: "fleet", Token: "tok-fleet"}},
		Workers:           1,
		MinRetrainSamples: 16,
		Drift:             online.Policy{Window: 10},
		Canary:            server.CanaryPolicy{Fraction: 0.5, MinSamples: 40, MaxFailureRate: 0.2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Listen through the hardened obs path, exactly like the daemon binary.
	if err := d.Start(server.Config{Addr: "127.0.0.1:0"}); err != nil {
		t.Fatal(err)
	}
	shutdownDone := false
	defer func() {
		if !shutdownDone {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			d.Shutdown(sctx)
		}
	}()

	newClient := func() *Client {
		c, err := New(Config{BaseURL: "http://" + d.Addr(), Token: "tok-fleet"})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c1, c2 := newClient(), newClient()

	// Both clients register the same spec; the second registration is a
	// no-op, not a conflict.
	spec := server.FunctionSpec{Name: e2eFn, Features: []string{"x"}, Variants: []string{"a", "b", "boom"}, Default: 0}
	if err := c1.RegisterFunction(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := c2.RegisterFunction(ctx, spec); err != nil {
		t.Fatal(err)
	}

	cv1, cx1, p1 := newFleetMember(t, c1)
	cv2, cx2, p2 := newFleetMember(t, c2)
	_ = cx2

	// Phase 1: seed the corpus and tune the first generation.
	if _, err := c1.PushObservations(ctx, e2eFn, seedSamples(40, nil)); err != nil {
		t.Fatal(err)
	}
	job, err := c1.Tune(ctx, e2eFn)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tune job v1", func() bool {
		st, err := c1.Job(ctx, job)
		return err == nil && st.State.Terminal()
	})
	dep, err := c1.Deployment(ctx, e2eFn)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 1 || dep.Canary != nil {
		t.Fatalf("after first tune: %+v, want stable v1 with no canary (first generation skips the gate)", dep)
	}

	// Phase 2: both clients pull — byte-identical artifacts, and a cached
	// re-pull revalidates to a 304.
	pull1, err := c1.PullModel(ctx, e2eFn, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	pull2, err := c2.PullModel(ctx, e2eFn, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pull1.Data, pull2.Data) || pull1.ETag != pull2.ETag || pull1.Version != 1 {
		t.Fatalf("fleet pulls diverge: v%d/%s vs v%d/%s", pull1.Version, pull1.ETag, pull2.Version, pull2.ETag)
	}
	if again, err := c2.PullModel(ctx, e2eFn, 0, pull2.ETag); err != nil || !again.NotModified {
		t.Fatalf("cached re-pull: %+v, %v, want a 304", again, err)
	}

	// Pollers install the stable generation; traffic dispatches through it.
	for _, p := range []*Poller{p1, p2} {
		res, err := p.PollOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.InstalledStable || res.StableVersion != 1 {
			t.Fatalf("poll result %+v, want stable v1 installed", res)
		}
	}
	if _, name, err := cv1.Call(e2eInput{X: 1}); err != nil || name != "a" {
		t.Fatalf("v1 dispatch: (%q, %v), want a", name, err)
	}
	if _, name, err := cv2.Call(e2eInput{X: 8}); err != nil || name != "b" {
		t.Fatalf("v1 dispatch: (%q, %v), want b", name, err)
	}
	// The tune job distilled the model it stored, so the fleet serves it
	// from the compiled tier.
	if m, err := ml.DecodeArtifact(pull1.Data, pull1.ETag); err != nil || m.Compiled == nil {
		t.Fatalf("tuned artifact decodes to %+v (err %v), want a compiled program", m, err)
	}
	if st := cx1.Stats(e2eFn); st.CompiledHits == 0 {
		t.Fatalf("poller-installed model served no compiled call: %+v", st)
	}

	// Phase 3: both clients push drifted observations; the pooled samples
	// trip fleet-wide drift and auto-submit a retrain, which stages v2 as a
	// canary because a stable incumbent exists.
	for i := 0; i < 4; i++ {
		if _, err := c1.PushObservations(ctx, e2eFn, driftedSamples(10)); err != nil {
			t.Fatal(err)
		}
		if _, err := c2.PushObservations(ctx, e2eFn, driftedSamples(10)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c1.Status(ctx, e2eFn)
	if err != nil {
		t.Fatal(err)
	}
	if st.Drift.Drifts == 0 {
		t.Fatalf("fleet drift not detected: %+v", st.Drift)
	}
	waitFor(t, "auto-tuned canary v2", func() bool {
		dep, err := c1.Deployment(ctx, e2eFn)
		return err == nil && dep.Canary != nil && dep.Canary.Version == 2
	})

	// Phase 4: pollers start serving the challenger at the gated fraction,
	// report fleet outcomes, and the clean challenger promotes only once the
	// fleet-wide sample floor is reached.
	for _, p := range []*Poller{p1, p2} {
		res, err := p.PollOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.StartedCanary || res.CanaryVersion != 2 {
			t.Fatalf("poll result %+v, want canary v2 started", res)
		}
	}
	if cs := cx1.CanaryStats(e2eFn); !cs.Active || cs.Fraction != 0.5 {
		t.Fatalf("local canary stats %+v, want active at fraction 0.5", cs)
	}

	promoted := false
	for round := 0; round < 50 && !promoted; round++ {
		for i := 0; i < 20; i++ {
			if _, _, err := cv1.Call(e2eInput{X: float64(i % 10)}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cv2.Call(e2eInput{X: float64(i % 10)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []*Poller{p1, p2} {
			res, err := p.PollOnce(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Decision == server.DecisionPromoted {
				promoted = true
			}
		}
	}
	if !promoted {
		t.Fatal("clean challenger never promoted")
	}
	// Both members converge on stable v2 with no canary serving.
	for i, p := range []*Poller{p1, p2} {
		if _, err := p.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if p.StableVersion() != 2 {
			t.Fatalf("member %d stable version %d, want 2", i+1, p.StableVersion())
		}
	}
	for i, cx := range []*core.Context{cx1, cx2} {
		if cs := cx.CanaryStats(e2eFn); cs.Active {
			t.Fatalf("member %d still serving a canary after promotion: %+v", i+1, cs)
		}
	}

	// Phase 5: an injected failing challenger — a model that always picks
	// the panicking variant — is pushed as v3, serves its fraction, fails
	// every admitted call, and is rolled back fleet-wide; stable stays v2.
	badData := alwaysBoomArtifact(t)
	if _, err := c1.PushModel(ctx, e2eFn, badData, ""); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Poller{p1, p2} {
		res, err := p.PollOnce(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.StartedCanary || res.CanaryVersion != 3 {
			t.Fatalf("poll result %+v, want canary v3 started", res)
		}
	}
	rolledBack := false
	for round := 0; round < 50 && !rolledBack; round++ {
		for i := 0; i < 20; i++ {
			// The runtime's fallback keeps every call succeeding even when
			// the challenger's pick panics.
			if _, _, err := cv1.Call(e2eInput{X: float64(i % 10)}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := cv2.Call(e2eInput{X: float64(i % 10)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range []*Poller{p1, p2} {
			res, err := p.PollOnce(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if res.Decision == server.DecisionRolledBack {
				rolledBack = true
			}
		}
	}
	if !rolledBack {
		t.Fatal("failing challenger never rolled back")
	}
	dep, err = c1.Deployment(ctx, e2eFn)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 2 || dep.Canary != nil || dep.LastDecision != server.DecisionRolledBack {
		t.Fatalf("post-rollback deployment %+v, want stable v2, no canary", dep)
	}
	for i, p := range []*Poller{p1, p2} {
		if _, err := p.PollOnce(ctx); err != nil {
			t.Fatal(err)
		}
		if p.StableVersion() != 2 {
			t.Fatalf("member %d stable version %d after rollback, want 2", i+1, p.StableVersion())
		}
	}
	if _, name, err := cv1.Call(e2eInput{X: 1}); err != nil || name == "boom" {
		t.Fatalf("post-rollback dispatch: (%q, %v)", name, err)
	}

	// Graceful daemon shutdown drains cleanly.
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	shutdownDone = true
}

// alwaysBoomArtifact trains a single-class model that predicts the
// panicking variant for every input.
func alwaysBoomArtifact(t *testing.T) []byte {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x < 4; x++ {
		ds.Append([]float64{x}, 2)
	}
	svm := ml.NewSVM(ml.LinearKernel{}, 1)
	if err := svm.Fit(ds); err != nil {
		t.Fatal(err)
	}
	data, _, err := ml.EncodeArtifact(&ml.Model{Classifier: svm})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
