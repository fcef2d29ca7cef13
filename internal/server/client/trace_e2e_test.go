package client

// Trace-correlation capstone: ONE trace id enters the system at the
// poller, the daemon is killed mid-canary and restarted over the same
// data directory, and the id must still be recoverable from every
// observability surface — both daemons' slog streams, the journal WAL
// bytes on disk, the resumed canary's episode, the settled verdict on
// the deployment, and the /debug/flight ring of the surviving daemon.
// Correlation that does not survive a crash is not correlation.

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nitro/internal/core"
	"nitro/internal/obs/trace"
	"nitro/internal/server"
)

const tracedFn = "traced"
const tracedID = "t-e2e-crash-0042"

// tracedMember builds one deployed process for the traced function.
func tracedMember(t *testing.T, c *Client) (*core.CodeVariant[e2eInput], *Poller) {
	t.Helper()
	cx := core.NewContext()
	cv := core.New[e2eInput](cx, core.DefaultPolicy(tracedFn))
	cv.AddVariant("a", func(in e2eInput) float64 { return 1 + in.X })
	cv.AddVariant("b", func(in e2eInput) float64 { return 10 - in.X })
	if err := cv.SetDefault("a"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(core.Feature[e2eInput]{Name: "x", Eval: func(in e2eInput) float64 { return in.X }})
	return cv, NewPoller(c, cx, tracedFn)
}

// traceLines returns the slog lines of buf that carry the given trace id.
func traceLines(buf *bytes.Buffer, id string) []string {
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, `"trace":"`+id+`"`) {
			out = append(out, line)
		}
	}
	return out
}

// hasEvent reports whether one of lines is the named slog event.
func hasEvent(lines []string, event string) bool {
	for _, line := range lines {
		if strings.Contains(line, `"msg":"`+event+`"`) {
			return true
		}
	}
	return false
}

func TestTraceSurvivesKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("trace e2e")
	}
	ctx := trace.With(context.Background(), tracedID)
	dataDir := t.TempDir()
	fixed := time.Unix(1700000000, 0).UTC()

	startDaemon := func(buf *bytes.Buffer, seed int64) *server.Daemon {
		t.Helper()
		d, err := server.NewDaemon(server.Config{
			Registry: server.RegistryConfig{
				Tenants: []server.TenantConfig{{Name: "fleet", Token: "tok-fleet"}},
				Workers: 1,
				DataDir: dataDir,
				Canary:  server.CanaryPolicy{Fraction: 0.5, MinSamples: 20, MaxFailureRate: 0.2},
			},
			Obs: server.ObsConfig{
				LogWriter: buf,
				Debug:     true,
				Clock:     func() time.Time { return fixed },
				TraceSeed: seed,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(server.Config{Addr: "127.0.0.1:0"}); err != nil {
			t.Fatal(err)
		}
		return d
	}

	// --- Phase 1: the id enters at the poller, canary goes live ----------

	var buf1 bytes.Buffer
	d1 := startDaemon(&buf1, 5)
	var clientLog bytes.Buffer
	c1, err := New(Config{
		BaseURL: "http://" + d1.Addr(),
		Token:   "tok-fleet",
		Seed:    11,
		Log: trace.NewLog(trace.LogConfig{
			Writer: &clientLog, Level: slog.LevelDebug,
			Clock: func() time.Time { return fixed },
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := server.FunctionSpec{Name: tracedFn, Features: []string{"x"}, Variants: []string{"a", "b"}, Default: 0}
	if err := c1.RegisterFunction(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.PushModel(ctx, tracedFn, chaosArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.PushModel(ctx, tracedFn, chaosArtifact(t, 6.5), ""); err != nil {
		t.Fatal(err)
	}
	_, p := tracedMember(t, c1)
	res, err := p.PollOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != tracedID {
		t.Fatalf("poll ran under trace %q, want the injected %q", res.Trace, tracedID)
	}
	if !res.InstalledStable || !res.StartedCanary {
		t.Fatalf("first poll %+v, want stable installed and canary adopted", res)
	}
	// Half the gate's samples are in when the daemon dies mid-canary.
	if dec, _, err := c1.ReportCanary(ctx, tracedFn, 2, "e2e", 10, 0); err != nil || dec != server.DecisionPending {
		t.Fatalf("mid-canary report: (%q, %v), want pending", dec, err)
	}
	d1.Kill()

	// Surface: the client's own slog stream saw the poll under the id.
	cl := traceLines(&clientLog, tracedID)
	if !hasEvent(cl, "poll.start") || !hasEvent(cl, "canary.adopt") {
		t.Fatalf("client log missing poll.start/canary.adopt under %s:\n%s", tracedID, clientLog.String())
	}

	// Surface: the dead daemon's slog stream carries the whole span tree.
	l1 := traceLines(&buf1, tracedID)
	for _, event := range []string{"function.register", "model.push", "canary.start", "canary.report"} {
		if !hasEvent(l1, event) {
			t.Fatalf("pre-kill slog stream missing %q under %s:\n%s", event, tracedID, buf1.String())
		}
	}

	// Surface: the journal WAL frames on disk carry the id — that is what
	// recovery will read.
	wal, err := os.ReadFile(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(wal, []byte(tracedID)) {
		t.Fatalf("journal WAL does not carry trace id %s", tracedID)
	}

	// --- Phase 2: restart re-attaches the id to the resumed episode ------

	var buf2 bytes.Buffer
	d2 := startDaemon(&buf2, 6)
	defer func() {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d2.Shutdown(sctx)
	}()
	rec := d2.Registry().Recovery()
	if !rec.Journal || rec.CleanShutdown || rec.ResumedCanaries != 1 {
		t.Fatalf("recovery after kill = %+v, want 1 resumed canary", rec)
	}
	l2 := traceLines(&buf2, tracedID)
	if !hasEvent(l2, "canary.resume") {
		t.Fatalf("restart did not re-attach %s to the resumed canary:\n%s", tracedID, buf2.String())
	}

	// --- Phase 3: the verdict settles under the id -----------------------

	c2, err := New(Config{BaseURL: "http://" + d2.Addr(), Token: "tok-fleet", Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	dec, dep, err := c2.ReportCanary(ctx, tracedFn, 2, "e2e", 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dec != server.DecisionPromoted {
		t.Fatalf("post-restart decision %q, want promoted (10 resumed + 10 fresh samples)", dec)
	}
	if dep.LastDecisionTrace != tracedID {
		t.Fatalf("verdict trace %q, want %q", dep.LastDecisionTrace, tracedID)
	}
	l2 = traceLines(&buf2, tracedID)
	if !hasEvent(l2, "canary.promote") {
		t.Fatalf("promotion not logged under %s:\n%s", tracedID, buf2.String())
	}

	// --- Phase 4: the flight ring still holds the id ---------------------

	resp, err := http.Get("http://" + d2.Addr() + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	dump, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(dump, []byte(tracedID)) {
		t.Fatalf("/debug/flight does not carry trace id %s: %s", tracedID, dump)
	}
}
