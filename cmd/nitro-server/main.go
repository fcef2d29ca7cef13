// nitro-server runs the Nitro model registry daemon: a multi-tenant HTTP
// service that owns tuned models for many functions, ingests observation
// samples from deployed clients, retrains on pooled fleet evidence, and
// distributes versioned model artifacts behind a fraction-gated canary.
//
// Tenants are declared either inline (-tenant name=token, comma-separated
// for several) or in a JSON file (-tenants) that can also carry per-tenant
// quotas. The telemetry surface (/metrics, /vars, /healthz) shares the
// listener with the API.
//
// -smoke runs a self-contained end-to-end check instead of serving: an
// ephemeral daemon is driven through register -> push observations (one
// binary frame from the client, one plain JSON body as curl sends it) ->
// tune -> pull artifact -> scrape metrics -> graceful shutdown, and the
// process exits non-zero if any step misbehaves. CI uses it as the
// server equivalent of the telemetry smoke.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"nitro/internal/faultnet"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/online"
	"nitro/internal/server"
	"nitro/internal/server/client"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:9090", "listen address (host:port; :0 picks a free port)")
		dataDir     = flag.String("data-dir", "", "directory for persisted specs and model artifacts (empty: in-memory only)")
		tenantsFile = flag.String("tenants", "", "JSON file declaring tenants: [{\"name\":...,\"token\":...,\"quotas\":{...}}]")
		tenantFlag  = flag.String("tenant", "", "inline tenants, comma-separated name=token pairs")
		workers     = flag.Int("workers", 2, "tuning worker goroutines")
		canaryFrac  = flag.Float64("canary-fraction", 0.2, "traffic fraction a challenger model serves during the canary gate")
		canaryMin   = flag.Int64("canary-min-samples", 50, "fleet-wide challenger calls required before a canary verdict")
		canaryFail  = flag.Float64("canary-max-failure-rate", 0.1, "challenger failure rate above which a canary rolls back")
		smoke       = flag.Bool("smoke", false, "run the self-contained end-to-end smoke check and exit")
		smokeChaos  = flag.Bool("smoke-chaos", false, "run the seeded kill-restart-resume chaos smoke twice, diff the transcripts, and exit")
		chaosSeed   = flag.Int64("chaos-seed", 42, "seed for the chaos smoke's fault schedule")
		smokeTrace  = flag.Bool("smoke-trace", false, "run the correlated-tracing smoke (span tree + flight recorder assertions) and exit")
		traceSeed   = flag.Int64("trace-seed", 0, "seed for server-minted trace ids (0: crypto/rand)")
		logEvents   = flag.Bool("log-events", false, "emit the structured JSON event stream on stderr")
		debugEvents = flag.Bool("debug", false, "lower the event stream to Debug level (per-request events)")
		profiling   = flag.Bool("pprof", false, "mount /debug/pprof and export Go runtime metrics (trusted networks only)")
		flightCap   = flag.Int("flight-capacity", 0, "flight recorder ring size (0: default)")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "nitro-server smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *smokeChaos {
		if err := runChaosSmoke(*chaosSeed); err != nil {
			fmt.Fprintf(os.Stderr, "nitro-server chaos smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *smokeTrace {
		if err := runTraceSmoke(); err != nil {
			fmt.Fprintf(os.Stderr, "nitro-server trace smoke: FAIL: %v\n", err)
			os.Exit(1)
		}
		return
	}

	tenants, err := loadTenants(*tenantsFile, *tenantFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: %v\n", err)
		os.Exit(2)
	}
	var logWriter io.Writer
	if *logEvents || *debugEvents {
		logWriter = os.Stderr
	}
	cfg := server.Config{
		Addr: *addr,
		Registry: server.RegistryConfig{
			Tenants: tenants,
			DataDir: *dataDir,
			Workers: *workers,
			Canary: server.CanaryPolicy{
				Fraction:       *canaryFrac,
				MinSamples:     *canaryMin,
				MaxFailureRate: *canaryFail,
			},
		},
		Obs: server.ObsConfig{
			LogWriter:      logWriter,
			Debug:          *debugEvents,
			TraceSeed:      *traceSeed,
			FlightCapacity: *flightCap,
			Profiling:      *profiling,
		},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: %v\n", err)
		os.Exit(2)
	}
	if err := d.Start(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("nitro-server listening on http://%s (%d tenants)\n", d.Addr(), len(tenants))

	// SIGQUIT dumps the flight recorder to stderr and keeps serving — the
	// crash-forensics path when a daemon misbehaves but must stay up.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintf(os.Stderr, "nitro-server: flight recorder dump:\n%s\n", d.Flight().DumpJSON())
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	<-stop
	fmt.Println("nitro-server: draining...")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "nitro-server: shutdown: %v\n", err)
		os.Exit(1)
	}
}

// loadTenants merges -tenants (JSON file) and -tenant (inline pairs).
func loadTenants(file, inline string) ([]server.TenantConfig, error) {
	var out []server.TenantConfig
	if file != "" {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(data, &out); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", file, err)
		}
	}
	if inline != "" {
		for _, pair := range strings.Split(inline, ",") {
			name, token, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || name == "" || token == "" {
				return nil, fmt.Errorf("bad -tenant entry %q, want name=token", pair)
			}
			out = append(out, server.TenantConfig{Name: name, Token: token})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no tenants configured: pass -tenant name=token or -tenants file.json")
	}
	return out, nil
}

// runSmoke drives an ephemeral daemon end to end through the client.
func runSmoke() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := server.Config{
		Addr: "127.0.0.1:0",
		Registry: server.RegistryConfig{
			Tenants: []server.TenantConfig{{Name: "smoke", Token: "smoke-token"}},
			Workers: 1,
		},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		return err
	}
	if err := d.Start(cfg); err != nil {
		return err
	}
	fmt.Printf("smoke: daemon up on http://%s\n", d.Addr())

	c, err := client.New(client.Config{BaseURL: "http://" + d.Addr(), Token: "smoke-token"})
	if err != nil {
		return err
	}
	fn := "smoke-sort"
	spec := server.FunctionSpec{Name: fn, Features: []string{"n"}, Variants: []string{"small", "large"}, Default: 0}
	if err := c.RegisterFunction(ctx, spec); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	fmt.Println("smoke: function registered")

	samples := make([]online.RemoteSample, 40)
	for i := range samples {
		x := float64(i % 10)
		times := []float64{1, 2}
		if x > 4.5 {
			times = []float64{2, 1}
		}
		samples[i] = online.RemoteSample{Features: []float64{x}, Times: times, Predicted: -1}
	}
	if _, err := c.PushObservations(ctx, fn, samples); err != nil {
		return fmt.Errorf("push observations: %w", err)
	}
	// The client pushes binary frames; older clients and curl post plain
	// JSON, which the route must keep accepting.
	jsonBatch := samples[:10]
	if err := postJSONObservations(ctx, "http://"+d.Addr(), "smoke-token", fn, jsonBatch); err != nil {
		return fmt.Errorf("push observations as JSON: %w", err)
	}
	st, err := c.Status(ctx, fn)
	if err != nil {
		return fmt.Errorf("status: %w", err)
	}
	if want := int64(len(samples) + len(jsonBatch)); st.Observations != want {
		return fmt.Errorf("registry counted %d observations, want %d from the frame and the JSON batch", st.Observations, want)
	}
	fmt.Printf("smoke: pushed %d observations as a frame and %d as plain JSON\n", len(samples), len(jsonBatch))

	job, err := c.Tune(ctx, fn)
	if err != nil {
		return fmt.Errorf("tune: %w", err)
	}
	for {
		st, err := c.Job(ctx, job)
		if err != nil {
			return fmt.Errorf("job status: %w", err)
		}
		if st.State.Terminal() {
			if st.Error != "" {
				return fmt.Errorf("tune job failed: %s", st.Error)
			}
			fmt.Printf("smoke: tune job %s done (model v%d, train accuracy %.2f)\n", job, st.Version, st.TrainAccuracy)
			break
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("tune job %s timed out", job)
		case <-time.After(50 * time.Millisecond):
		}
	}

	pull, err := c.PullModel(ctx, fn, 0, "")
	if err != nil {
		return fmt.Errorf("pull: %w", err)
	}
	if pull.Version != 1 || ml.ETagOf(pull.Data) != pull.ETag {
		return fmt.Errorf("pull returned v%d with inconsistent etag", pull.Version)
	}
	if again, err := c.PullModel(ctx, fn, 0, pull.ETag); err != nil || !again.NotModified {
		return fmt.Errorf("cached re-pull did not 304 (%+v, %v)", again, err)
	}
	fmt.Printf("smoke: pulled model v%d (%d bytes, etag %s), revalidation 304 ok\n", pull.Version, len(pull.Data), pull.ETag)
	// A registry tune job distills the model it ships, so every client
	// serves it on the compiled tier.
	model, err := ml.DecodeArtifact(pull.Data, pull.ETag)
	if err != nil {
		return fmt.Errorf("decode pulled artifact: %w", err)
	}
	if model.Compiled == nil {
		return fmt.Errorf("pulled artifact v%d carries no compiled program", pull.Version)
	}
	fmt.Printf("smoke: pulled model carries a %d-node compiled program\n", len(model.Compiled.Nodes))

	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		return fmt.Errorf("scrape: %w", err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if err := obs.ValidatePrometheusText(string(text)); err != nil {
		return fmt.Errorf("metrics exposition invalid: %w", err)
	}
	for _, want := range []string{"nitro_server_observations_total", "nitro_server_tune_jobs_done_total", "nitro_server_artifact_pulls_total"} {
		if !strings.Contains(string(text), want) {
			return fmt.Errorf("metrics missing %s", want)
		}
	}
	fmt.Println("smoke: metrics exposition valid")

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := d.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("smoke: graceful shutdown ok")
	fmt.Println("nitro-server smoke: PASS")
	return nil
}

// postJSONObservations pushes samples the way curl and older clients do:
// one plain net/http POST of a JSON body.
func postJSONObservations(ctx context.Context, base, token, fn string, samples []online.RemoteSample) error {
	body, err := json.Marshal(map[string]any{"samples": samples})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/api/v1/functions/"+fn+"/observations", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(reply)))
	}
	return nil
}

// chaosSpec is the function used by the chaos smoke.
var chaosSpec = server.FunctionSpec{Name: "chaos-sort", Features: []string{"x"}, Variants: []string{"a", "b"}, Default: 0}

// chaosReporter is the canary reporter identity the chaos and trace smokes
// send their cumulative totals under.
const chaosReporter = "smoke-client"

// chaosArtifact trains a deterministic 1-feature/2-class model; distinct
// boundaries yield distinct artifact bytes, so two pushes stage a canary.
func chaosArtifact(boundary float64) ([]byte, error) {
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
		return nil, err
	}
	data, _, err := ml.EncodeArtifact(&ml.Model{Classifier: svm})
	return data, err
}

// runChaosSmoke runs the seeded kill-restart-resume lifecycle twice and
// diffs the transcripts byte for byte: all fault decisions come from one
// serial, seeded driver, so any divergence means nondeterminism crept into
// the crash-recovery path.
func runChaosSmoke(seed int64) error {
	first, err := chaosLifecycle(seed)
	if err != nil {
		return err
	}
	second, err := chaosLifecycle(seed)
	if err != nil {
		return err
	}
	if first != second {
		return fmt.Errorf("transcripts diverge between identically seeded runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", first, second)
	}
	fmt.Print(first)
	fmt.Printf("chaos smoke: transcripts identical across 2 runs (seed %d)\n", seed)
	fmt.Println("nitro-server chaos smoke: PASS")
	return nil
}

// chaosLifecycle drives one seeded kill-restart-resume-promote pass and
// returns its transcript. The transcript carries only deterministic facts
// (versions, counters, decisions, fault tallies) — no addresses, no
// wall-clock — so identically seeded runs must produce identical bytes.
func chaosLifecycle(seed int64) (transcript string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var b strings.Builder
	logf := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	dir, err := os.MkdirTemp("", "nitro-chaos-smoke-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)

	startDaemon := func() (*server.Daemon, error) {
		cfg := server.Config{
			Addr: "127.0.0.1:0",
			Registry: server.RegistryConfig{
				Tenants: []server.TenantConfig{{Name: "smoke", Token: "smoke-token"}},
				Workers: 1,
				DataDir: dir,
				Canary:  server.CanaryPolicy{Fraction: 0.5, MinSamples: 40, MaxFailureRate: 0.2},
			},
		}
		d, err := server.NewDaemon(cfg)
		if err != nil {
			return nil, err
		}
		if err := d.Start(cfg); err != nil {
			return nil, err
		}
		return d, nil
	}

	// Stage a canary on a fault-free wire, then crash without any drain.
	d, err := startDaemon()
	if err != nil {
		return "", err
	}
	c, err := client.New(client.Config{BaseURL: "http://" + d.Addr(), Token: "smoke-token"})
	if err != nil {
		return "", err
	}
	if err := c.RegisterFunction(ctx, chaosSpec); err != nil {
		return "", fmt.Errorf("register: %w", err)
	}
	for i, boundary := range []float64{4.5, 6.5} {
		art, err := chaosArtifact(boundary)
		if err != nil {
			return "", err
		}
		if _, err := c.PushModel(ctx, chaosSpec.Name, art, ""); err != nil {
			return "", fmt.Errorf("push v%d: %w", i+1, err)
		}
	}
	dec, dep, err := c.ReportCanary(ctx, chaosSpec.Name, 2, chaosReporter, 20, 1)
	if err != nil {
		return "", fmt.Errorf("mid-canary report: %w", err)
	}
	logf("staged: stable=v%d canary=v%d decision=%s", dep.Stable, dep.Canary.Version, dec)
	d.Kill()
	logf("killed: daemon crashed mid-canary (no drain, no marker)")

	// Restart over the same data dir; the journal resumes the canary.
	d, err = startDaemon()
	if err != nil {
		return "", fmt.Errorf("restart: %w", err)
	}
	defer func() {
		if d != nil {
			sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer scancel()
			if serr := d.Shutdown(sctx); serr != nil && err == nil {
				err = serr
			}
		}
	}()
	rec := d.Registry().Recovery()
	logf("recovery: journal=%v clean_shutdown=%v replayed=%d resumed=%d dropped=%d corrupt=%q",
		rec.Journal, rec.CleanShutdown, rec.RecordsReplayed, rec.ResumedCanaries, rec.DroppedRecords, rec.CorruptTail)
	if rec.ResumedCanaries != 1 || rec.CleanShutdown {
		return "", fmt.Errorf("restart did not resume the canary: %+v", rec)
	}

	// All remaining traffic crosses the seeded fault injector.
	ft := faultnet.New(nil, faultnet.Policy{
		Seed:      seed,
		DropRate:  0.20,
		Rate5xx:   0.15,
		BurstLen:  2,
		ResetRate: 0.15,
		DelayRate: 0.05,
		Delay:     time.Millisecond,
	})
	cc, err := client.New(client.Config{
		BaseURL:    "http://" + d.Addr(),
		Token:      "smoke-token",
		HTTPClient: &http.Client{Transport: ft},
		Retries:    8,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 20 * time.Millisecond,
		Seed:       seed + 1,
	})
	if err != nil {
		return "", err
	}
	dep, err = cc.Deployment(ctx, chaosSpec.Name)
	if err != nil {
		return "", fmt.Errorf("deployment through chaos: %w", err)
	}
	if dep.Canary == nil {
		return "", fmt.Errorf("canary lost across restart: %+v", dep)
	}
	logf("resumed: canary=v%d calls=%d failures=%d", dep.Canary.Version, dep.Canary.Calls, dep.Canary.Failures)

	reports := 0
	decision := server.DecisionPending
	for decision == server.DecisionPending {
		if reports++; reports > 20 {
			return "", fmt.Errorf("canary did not settle after %d reports", reports)
		}
		// Cumulative totals: 10 more calls per round past the 20 reported
		// before the crash, so a retried report cannot count twice.
		decision, _, err = cc.ReportCanary(ctx, chaosSpec.Name, 2, chaosReporter, 20+10*int64(reports), 1)
		if err != nil {
			return "", fmt.Errorf("canary report %d dropped under chaos: %w", reports, err)
		}
		logf("report %d: decision=%s", reports, decision)
	}
	if decision != server.DecisionPromoted {
		return "", fmt.Errorf("canary decision %q, want promoted", decision)
	}
	dep, err = cc.Deployment(ctx, chaosSpec.Name)
	if err != nil {
		return "", err
	}
	logf("promoted: stable=v%d canary=%v", dep.Stable, dep.Canary != nil)
	st := ft.Stats()
	if st.Drops+st.Faults5xx+st.Resets == 0 {
		return "", fmt.Errorf("no faults injected (%v); the smoke proved nothing", st)
	}
	logf("faultnet: %v", st)

	// Graceful shutdown writes the clean marker; the next start has nothing
	// to resume.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := d.Shutdown(sctx); err != nil {
		return "", fmt.Errorf("shutdown: %w", err)
	}
	d = nil
	d2, err := startDaemon()
	if err != nil {
		return "", err
	}
	rec = d2.Registry().Recovery()
	logf("clean restart: clean_shutdown=%v resumed=%d", rec.CleanShutdown, rec.ResumedCanaries)
	sctx2, scancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel2()
	if err := d2.Shutdown(sctx2); err != nil {
		return "", err
	}
	if !rec.CleanShutdown || rec.ResumedCanaries != 0 {
		return "", fmt.Errorf("clean restart misread the journal: %+v", rec)
	}
	return b.String(), nil
}
