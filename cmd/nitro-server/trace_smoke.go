package main

// Correlated-tracing smoke: drives an ephemeral daemon through a full
// canary lifecycle under ONE injected trace id and then checks that the
// id is recoverable from every observability surface the daemon has —
// the structured slog stream, the journal WAL bytes on disk, the
// /debug/flight ring, and the settled deployment's last_decision_trace.
// The flight dump is also scraped twice and byte-compared: it must be
// wall-clock-free and side-effect-free, so forensics never perturb the
// evidence they collect.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nitro/internal/obs/trace"
	"nitro/internal/server"
	"nitro/internal/server/client"
)

const smokeTraceID = "t-smoke-e2e-0001"

func runTraceSmoke() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ctx = trace.With(ctx, smokeTraceID)

	dir, err := os.MkdirTemp("", "nitro-trace-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	var logBuf bytes.Buffer
	fixed := time.Unix(1700000000, 0).UTC()
	cfg := server.Config{
		Addr: "127.0.0.1:0",
		Registry: server.RegistryConfig{
			Tenants: []server.TenantConfig{{Name: "smoke", Token: "smoke-token"}},
			Workers: 1,
			DataDir: dir,
			Canary:  server.CanaryPolicy{Fraction: 0.5, MinSamples: 20, MaxFailureRate: 0.2},
		},
		Obs: server.ObsConfig{
			LogWriter: &logBuf,
			Debug:     true,
			Clock:     func() time.Time { return fixed },
			TraceSeed: 7,
		},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		return err
	}
	if err := d.Start(cfg); err != nil {
		return err
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		d.Shutdown(sctx) //nolint:errcheck // smoke teardown
	}()
	fmt.Printf("trace smoke: daemon up on http://%s, trace id %s\n", d.Addr(), smokeTraceID)

	c, err := client.New(client.Config{BaseURL: "http://" + d.Addr(), Token: "smoke-token", Seed: 11})
	if err != nil {
		return err
	}
	spec := server.FunctionSpec{Name: "trace-sort", Features: []string{"x"}, Variants: []string{"a", "b"}, Default: 0}
	if err := c.RegisterFunction(ctx, spec); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	for i, boundary := range []float64{4.5, 6.5} {
		art, err := chaosArtifact(boundary)
		if err != nil {
			return err
		}
		if _, err := c.PushModel(ctx, spec.Name, art, ""); err != nil {
			return fmt.Errorf("push v%d: %w", i+1, err)
		}
	}
	dec, dep, err := c.ReportCanary(ctx, spec.Name, 2, chaosReporter, 20, 0)
	if err != nil {
		return fmt.Errorf("canary report: %w", err)
	}
	if dec != server.DecisionPromoted {
		return fmt.Errorf("canary decision %q, want promoted", dec)
	}
	if dep.LastDecisionTrace != smokeTraceID {
		return fmt.Errorf("deployment last_decision_trace %q, want %q", dep.LastDecisionTrace, smokeTraceID)
	}
	fmt.Println("trace smoke: canary promoted, verdict carries the trace id")

	// Surface 1: the structured slog stream. Every span of the lifecycle
	// must appear under the injected id.
	spanEvents := []string{"function.register", "model.push", "canary.start", "canary.report", "canary.promote"}
	for _, want := range spanEvents {
		found := false
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if strings.Contains(line, `"trace":"`+smokeTraceID+`"`) && strings.Contains(line, `"msg":"`+want+`"`) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("slog stream missing %q under trace %s:\n%s", want, smokeTraceID, logBuf.String())
		}
	}
	fmt.Printf("trace smoke: span tree complete in slog stream (%s)\n", strings.Join(spanEvents, " -> "))

	// Surface 2: the journal WAL bytes on disk carry the trace field.
	wal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return fmt.Errorf("reading journal: %w", err)
	}
	if !bytes.Contains(wal, []byte(smokeTraceID)) {
		return fmt.Errorf("journal WAL does not carry trace id %s", smokeTraceID)
	}
	fmt.Println("trace smoke: journal WAL frames carry the trace id")

	// Surface 3: /debug/flight. The dump must parse, carry the id, contain
	// no wall-clock, and be byte-identical across two scrapes — reading the
	// recorder is side-effect-free.
	scrape := func() ([]byte, error) {
		resp, err := http.Get("http://" + d.Addr() + "/debug/flight")
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	dump1, err := scrape()
	if err != nil {
		return fmt.Errorf("flight scrape: %w", err)
	}
	dump2, err := scrape()
	if err != nil {
		return fmt.Errorf("flight re-scrape: %w", err)
	}
	if !bytes.Equal(dump1, dump2) {
		return fmt.Errorf("flight dump not idempotent:\n--- scrape 1 ---\n%s\n--- scrape 2 ---\n%s", dump1, dump2)
	}
	var flight struct {
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Seq   uint64 `json:"seq"`
			Trace string `json:"trace"`
			Name  string `json:"event"`
		} `json:"events"`
	}
	if err := json.Unmarshal(dump1, &flight); err != nil {
		return fmt.Errorf("flight dump unparsable: %w\n%s", err, dump1)
	}
	if flight.Recorded == 0 || len(flight.Events) == 0 {
		return fmt.Errorf("flight dump empty: %s", dump1)
	}
	traced := 0
	for _, e := range flight.Events {
		if e.Seq == 0 {
			return fmt.Errorf("flight event missing seq: %s", dump1)
		}
		if e.Trace == smokeTraceID {
			traced++
		}
	}
	if traced == 0 {
		return fmt.Errorf("no flight events under trace %s: %s", smokeTraceID, dump1)
	}
	if bytes.Contains(dump1, []byte(`"time"`)) {
		return fmt.Errorf("flight dump carries wall-clock: %s", dump1)
	}
	fmt.Printf("trace smoke: flight dump clean (%d events recorded, %d under the trace, idempotent, wall-clock-free)\n",
		flight.Recorded, traced)

	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := d.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println("nitro-server trace smoke: PASS")
	return nil
}
