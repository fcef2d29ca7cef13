package client

// Chaos capstone: the daemon is killed mid-canary (no drain, no
// clean-shutdown marker), restarted over the same data directory, and then
// driven to promotion through a fault-injecting transport. The acceptance
// bar is exact: the canary resumes at its recorded sample counts instead
// of aborting, promotes through injected drops / 5xx bursts / resets, and
// not one client call is dropped — every API call either succeeds through
// retries or the test fails. A poller then rides out a full partition. The
// whole lifecycle runs twice with one seed and the two transcripts must
// match byte for byte.

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"nitro/internal/core"
	"nitro/internal/faultnet"
	"nitro/internal/ml"
	"nitro/internal/server"
)

const chaosFn = "chaos"

// chaosArtifact trains a 1-feature/2-class model (class 1 above the
// boundary); distinct boundaries yield distinct artifact bytes/ETags.
func chaosArtifact(t *testing.T, boundary float64) []byte {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x < 10; x++ {
		label := 0
		if x > boundary {
			label = 1
		}
		ds.Append([]float64{x}, label)
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

// chaosMember builds one deployed process for the chaos function.
func chaosMember(t *testing.T, c *Client) (*core.CodeVariant[e2eInput], *Poller) {
	t.Helper()
	cx := core.NewContext()
	cv := core.New[e2eInput](cx, core.DefaultPolicy(chaosFn))
	cv.AddVariant("a", func(in e2eInput) float64 { return 1 + in.X })
	cv.AddVariant("b", func(in e2eInput) float64 { return 10 - in.X })
	if err := cv.SetDefault("a"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(core.Feature[e2eInput]{Name: "x", Eval: func(in e2eInput) float64 { return in.X }})
	return cv, NewPoller(c, cx, chaosFn)
}

// TestChaosKillRestartResumePromote runs chaosLifecycle twice with one
// seed. Every fault decision comes from one serial, seeded driver, so any
// divergence between the transcripts means nondeterminism crept into the
// crash-recovery path.
func TestChaosKillRestartResumePromote(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e")
	}
	first := chaosLifecycle(t, 42)
	if second := chaosLifecycle(t, 42); first != second {
		t.Fatalf("transcripts diverge between identically seeded runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, second)
	}
	t.Logf("transcript, identical across 2 runs:\n%s", first)
}

// chaosLifecycle drives one seeded kill-restart-resume-promote pass and
// returns its transcript. The transcript carries only deterministic facts
// (versions, counters, decisions, the fault tally of the promotion) — no
// addresses and no wall-clock. The partition phase runs after the tally is
// taken: how often a poller retries through an open circuit breaker
// depends on wall-clock time.
func chaosLifecycle(t *testing.T, seed int64) string {
	t.Helper()
	ctx := context.Background()
	dataDir := t.TempDir()
	var b strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	startDaemon := func() *server.Daemon {
		t.Helper()
		d, err := server.NewDaemon(server.Config{Registry: server.RegistryConfig{
			Tenants: []server.TenantConfig{{Name: "fleet", Token: "tok-fleet"}},
			Workers: 1,
			DataDir: dataDir,
			Canary:  server.CanaryPolicy{Fraction: 0.5, MinSamples: 40, MaxFailureRate: 0.2},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(server.Config{Addr: "127.0.0.1:0"}); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// --- Phase 1: stage a canary and crash mid-count ---------------------

	d1 := startDaemon()
	c1, err := New(Config{BaseURL: "http://" + d1.Addr(), Token: "tok-fleet"})
	if err != nil {
		t.Fatal(err)
	}
	spec := server.FunctionSpec{Name: chaosFn, Features: []string{"x"}, Variants: []string{"a", "b"}, Default: 0}
	if err := c1.RegisterFunction(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// First generation promotes straight to stable; the second stages a
	// fraction-gated canary.
	if _, err := c1.PushModel(ctx, chaosFn, chaosArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.PushModel(ctx, chaosFn, chaosArtifact(t, 6.5), ""); err != nil {
		t.Fatal(err)
	}
	// Half the gate's samples are in when the daemon dies.
	dec, dep, err := c1.ReportCanary(ctx, chaosFn, 2, "e2e", 20, 1)
	if err != nil || dec != server.DecisionPending {
		t.Fatalf("mid-canary report: (%q, %v), want pending", dec, err)
	}
	logf("staged: stable=v%d canary=v%d decision=%s", dep.Stable, dep.Canary.Version, dec)
	d1.Kill()

	// --- Phase 2: restart resumes the canary from the journal ------------

	d2 := startDaemon()
	stopped := false
	defer func() {
		if !stopped {
			sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			d2.Shutdown(sctx)
		}
	}()
	rec := d2.Registry().Recovery()
	if !rec.Journal || rec.CleanShutdown || rec.ResumedCanaries != 1 || rec.CorruptTail != "" {
		t.Fatalf("recovery after kill = %+v, want 1 resumed canary from an unclean journal", rec)
	}
	logf("recovery: replayed=%d resumed=%d dropped=%d", rec.RecordsReplayed, rec.ResumedCanaries, rec.DroppedRecords)

	// Everything from here on flows through the chaos transport: drops,
	// 5xx bursts, mid-body resets and injected latency — all seeded, all
	// absorbed by the client's retry/backoff layer.
	ft := faultnet.New(nil, faultnet.Policy{
		Seed:      seed,
		DropRate:  0.10,
		Rate5xx:   0.10,
		BurstLen:  2,
		ResetRate: 0.10,
		DelayRate: 0.05,
		Delay:     time.Millisecond,
	})
	c2, err := New(Config{
		BaseURL:         "http://" + d2.Addr(),
		Token:           "tok-fleet",
		HTTPClient:      &http.Client{Transport: ft},
		Retries:         8,
		Backoff:         2 * time.Millisecond,
		MaxBackoff:      20 * time.Millisecond,
		BreakerCooldown: 10 * time.Millisecond,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}

	dep, err = c2.Deployment(ctx, chaosFn)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 1 || dep.Canary == nil || dep.Canary.Version != 2 {
		t.Fatalf("post-restart deployment %+v, want stable v1 with canary v2 live", dep)
	}
	if dep.Canary.Calls != 20 || dep.Canary.Failures != 1 {
		t.Fatalf("resumed canary counters %d/%d, want 20/1 from the journal", dep.Canary.Calls, dep.Canary.Failures)
	}
	logf("resumed: canary=v%d calls=%d failures=%d", dep.Canary.Version, dep.Canary.Calls, dep.Canary.Failures)

	// --- Phase 3: promote through chaos with zero dropped calls ----------

	calls := 0
	decision := server.DecisionPending
	for decision == server.DecisionPending {
		// Cumulative totals: 10 more clean calls per report past the 20
		// reported before the crash.
		calls++
		dec, _, err := c2.ReportCanary(ctx, chaosFn, 2, "e2e", 20+10*int64(calls), 1)
		if err != nil {
			t.Fatalf("canary report %d dropped under chaos: %v", calls, err)
		}
		decision = dec
		logf("report %d: decision=%s", calls, decision)
		if calls > 20 {
			t.Fatalf("canary did not settle after %d clean reports", calls)
		}
	}
	if decision != server.DecisionPromoted {
		t.Fatalf("canary decision %q, want promoted (resumed 20/1 + clean reports stay under the failure gate)", decision)
	}
	dep, err = c2.Deployment(ctx, chaosFn)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 2 || dep.Canary != nil {
		t.Fatalf("post-promotion deployment %+v, want stable v2, no canary", dep)
	}
	logf("promoted: stable=v%d canary=%v", dep.Stable, dep.Canary != nil)
	st := ft.Stats()
	if st.Drops+st.Faults5xx+st.Resets == 0 {
		t.Fatalf("chaos run injected no faults (%v) — the test proved nothing", st)
	}
	logf("faultnet: %v", st)

	// --- Phase 4: a partitioned poller degrades, then reconciles ---------

	cv, p := chaosMember(t, c2)
	if res, err := p.PollOnce(ctx); err != nil || !res.InstalledStable || res.StableVersion != 2 {
		t.Fatalf("first poll: (%+v, %v), want stable v2 installed", res, err)
	}
	ft.Partition(true)
	if _, err := p.PollOnce(ctx); err == nil {
		t.Fatal("poll through a full partition succeeded")
	}
	if !p.Degraded() {
		t.Fatal("poller not degraded while partitioned")
	}
	// The member keeps serving its installed incumbent.
	if _, name, err := cv.Call(e2eInput{X: 1}); err != nil || name == "" {
		t.Fatalf("partitioned dispatch: (%q, %v)", name, err)
	}
	// On heal the first polls may still hit the opened circuit breaker;
	// reconciliation succeeds as soon as its half-open probe goes through.
	ft.Partition(false)
	var res PollResult
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err = p.PollOnce(ctx)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("poller never reconciled after heal: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !res.Healed || p.Degraded() {
		t.Fatalf("post-heal poll %+v (degraded=%v), want a recorded heal", res, p.Degraded())
	}
	if st := ft.Stats(); st.Partitioned == 0 {
		t.Fatalf("partition phase injected nothing: %v", st)
	}

	// --- Phase 5: graceful shutdown leaves a clean journal ---------------

	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d2.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stopped = true
	d3 := startDaemon()
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d3.Shutdown(sctx)
	}()
	rec = d3.Registry().Recovery()
	if !rec.CleanShutdown || rec.ResumedCanaries != 0 {
		t.Fatalf("recovery after graceful shutdown = %+v, want a clean marker and nothing to resume", rec)
	}
	logf("clean restart: clean_shutdown=%v resumed=%d", rec.CleanShutdown, rec.ResumedCanaries)
	if dep, err := freshDeployment(ctx, t, d3); err != nil || dep.Stable != 2 {
		t.Fatalf("post-restart deployment (%+v, %v), want stable v2", dep, err)
	}
	return b.String()
}

// freshDeployment reads the deployment through a plain client against d.
func freshDeployment(ctx context.Context, t *testing.T, d *server.Daemon) (server.Deployment, error) {
	t.Helper()
	c, err := New(Config{BaseURL: "http://" + d.Addr(), Token: "tok-fleet"})
	if err != nil {
		t.Fatal(err)
	}
	return c.Deployment(ctx, chaosFn)
}
