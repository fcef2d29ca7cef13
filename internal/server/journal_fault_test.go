package server

// Registry fault tests for the write-first discipline: every mutation is
// written before it is applied, live and on replay through the same apply,
// and the journal fails closed. Each case injects one failure — a write or
// an fsync that fails, bytes a failed write left behind, a crash between
// two records, a mutation after shutdown — and checks what the registry
// serves before and after a restart over the same DataDir.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nitro/internal/online"
)

// leaveTornBytes writes b after the journal's last good frame through its
// open handle, as a write that failed part way leaves them: on disk, with
// the handle's offset moved past them.
func leaveTornBytes(t testing.TB, j *journal, b []byte) {
	t.Helper()
	if _, err := j.f.Seek(0, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	if _, err := j.f.Write(b); err != nil {
		t.Fatal(err)
	}
}

// cutLastFrame truncates the journal at path before its final frame and
// returns that frame's record.
func cutLastFrame(t *testing.T, path string) journalRecord {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := -1
	for off := 0; off+8 <= len(data); off += 8 + int(binary.LittleEndian.Uint32(data[off:])) {
		last = off
	}
	if last < 0 {
		t.Fatal("journal holds no frame")
	}
	var rec journalRecord
	if err := json.Unmarshal(data[last+8:], &rec); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(last)); err != nil {
		t.Fatal(err)
	}
	return rec
}

func statusOf(t *testing.T, r *Registry) FunctionStatus {
	t.Helper()
	st, err := r.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJournalFailedVerdictAppliesNothing: a verdict whose canary_end append
// fails is refused with the error and applied nowhere. The deployment
// still reads stable v1 with the v2 canary pending, and the detector has
// not swapped, both before and after a restart.
func TestJournalFailedVerdictAppliesNothing(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	drift := statusOf(t, r).Drift
	// The handle under the journal is gone, so the append's write fails.
	if err := r.journal.f.Close(); err != nil {
		t.Fatal(err)
	}
	if dec, _, err := r.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", 60, 1); err == nil {
		t.Fatalf("verdict %q acknowledged although its canary_end append failed", dec)
	}
	check := func(reg *Registry, when string) {
		t.Helper()
		st := statusOf(t, reg)
		dep := st.Deployment
		if dep.Stable != 1 || dep.LastDecision != DecisionPending || dep.Canary == nil ||
			dep.Canary.Version != 2 || dep.Canary.Calls != 20 {
			t.Fatalf("%s: deployment %+v (canary %+v), want stable v1 with the v2 canary pending at 20 calls",
				when, dep, dep.Canary)
		}
		if st.Drift != drift {
			t.Fatalf("%s: drift %+v, want %+v as before the refused verdict", when, st.Drift, drift)
		}
	}
	check(r, "after the failed append")
	r.kill()
	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	check(r2, "after restart")
}

// TestJournalTornWriteKeepsNextRecord: bytes a failed write left after the
// last good frame cost nothing acknowledged. The next append writes from
// the last good offset, so a report acknowledged at 30 calls resumes at 30
// after a crash, from an intact journal.
func TestJournalTornWriteKeepsNextRecord(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 10, 0)
	frame, err := frameRecord(journalRecord{Op: opCanaryProgress, Tenant: "acme", Function: "sort", Version: 2, Calls: 20})
	if err != nil {
		t.Fatal(err)
	}
	leaveTornBytes(t, r.journal, frame[:5])
	dec, dep, err := r.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", 30, 0)
	if err != nil || dec != DecisionPending || dep.Canary.Calls != 30 {
		t.Fatalf("report: (%q, %+v, %v), want pending at 30 calls", dec, dep.Canary, err)
	}
	r.kill()

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	if rec := r2.Recovery(); rec.TailError != nil || rec.ResumedCanaries != 1 {
		t.Fatalf("recovery %+v, want one resumed canary and an intact journal", rec)
	}
	if c := statusOf(t, r2).Deployment.Canary; c == nil || c.Calls != 30 {
		t.Fatalf("resumed canary %+v, want the acknowledged 30 calls", c)
	}
}

// TestJournalReplayedVerdictMovesDetector: after a crash between a
// verdict's canary_end record and the drift snapshot that follows it, the
// fleet detector ends where the live path left it — healthy after a
// promotion, drifting after a rollback — not in the retraining state the
// last snapshot recorded. Mismatching pushes then start a retrain.
func TestJournalReplayedVerdictMovesDetector(t *testing.T) {
	cfg := func(c *RegistryConfig) {
		c.Drift = online.Policy{Window: 5}
		c.MinRetrainSamples = 5
	}
	for _, tc := range []struct {
		decision string
		failures int64
		want     string
	}{
		{DecisionPromoted, 0, "healthy"},
		{DecisionRolledBack, 60, "drifting"},
	} {
		t.Run(tc.decision, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "journal.wal")
			r := newJournalRegistry(t, dir, cfg)
			stageCanary(t, r, 0, 0)
			r.kill()
			// A retrain in flight, as the snapshot after a tune submit
			// records it.
			appendRawRecord(t, path, `{"op":"drift","tenant":"acme","fn":"sort","drift":{"state":2}}`)

			r = newJournalRegistry(t, dir, cfg)
			if st := statusOf(t, r).Drift.State; st != "retraining" {
				t.Fatalf("detector %q before the verdict, want retraining", st)
			}
			dec, _, err := r.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", 60, tc.failures)
			if err != nil || dec != tc.decision {
				t.Fatalf("verdict (%q, %v), want %q", dec, err, tc.decision)
			}
			live := statusOf(t, r).Drift
			if live.State != tc.want {
				t.Fatalf("live detector %q after the verdict, want %q", live.State, tc.want)
			}
			r.kill()
			if rec := cutLastFrame(t, path); rec.Op != opDrift {
				t.Fatalf("last record is %q, want the drift snapshot after the verdict", rec.Op)
			}

			r = newJournalRegistry(t, dir, cfg)
			defer r.Close()
			if got := statusOf(t, r).Drift; got != live {
				t.Fatalf("replayed detector %+v, want %+v as the live path left it", got, live)
			}
			miss := make([]online.RemoteSample, 20)
			for i := range miss {
				miss[i] = online.RemoteSample{Features: []float64{float64(i)}, Times: []float64{1, 2}, Predicted: 1}
			}
			if _, err := r.PushObservations(context.Background(), "acme", "sort", miss); err != nil {
				t.Fatal(err)
			}
			if n := r.metrics.autoTunes.Load(); n != 1 {
				t.Fatalf("%d retrains after four fully mismatched windows, want 1", n)
			}
		})
	}
}

// TestJournalFailedFsyncRefusesWrites: an append whose fsync fails errors
// and applies nothing, and marks the journal failed: every later mutation
// errors, with a 500 over HTTP, even once the file is healthy again. A
// restart recovers what the file holds and accepts writes again.
func TestJournalFailedFsyncRefusesWrites(t *testing.T) {
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	if null.Sync() == nil {
		t.Skip("fsync of the null device succeeds on this platform: no failure to inject")
	}
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 10, 0)
	ctx := context.Background()
	if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{
		{Features: []float64{1}, Times: []float64{1, 2}, Predicted: 0},
		{Features: []float64{2}, Times: []float64{1, 2}, Predicted: 0},
	}); err != nil {
		t.Fatal(err)
	}
	file := r.journal.f
	r.journal.f = null // the write succeeds and the fsync fails
	if _, _, err := r.ReportCanary(ctx, "acme", "sort", 2, "rep-1", 20, 0); err == nil {
		t.Fatal("report acknowledged although its fsync failed")
	}
	r.journal.f = file
	before := statusOf(t, r)
	if c := before.Deployment.Canary; c == nil || c.Calls != 10 {
		t.Fatalf("canary %+v after the failed fsync, want 10 calls", c)
	}

	if _, _, err := r.ReportCanary(ctx, "acme", "sort", 2, "rep-1", 20, 0); err == nil {
		t.Error("report accepted by a failed journal")
	}
	if _, err := r.PushModel(ctx, "acme", "sort", boundaryArtifact(t, 2.5), ""); err == nil {
		t.Error("model push accepted by a failed journal")
	}
	if err := r.RegisterFunction(ctx, "acme", FunctionSpec{Name: "other", Features: []string{"n"}, Variants: []string{"a", "b"}}); err == nil {
		t.Error("registration accepted by a failed journal")
	}
	if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{{Features: []float64{1}, Times: []float64{1, 2}, Predicted: 0}}); err == nil {
		t.Error("observations accepted by a failed journal")
	}
	if _, err := r.Tune(ctx, "acme", "sort"); err == nil {
		t.Error("tune accepted by a failed journal")
	}
	hs := httptest.NewServer(r.APIHandler())
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 2.5), nil), http.StatusInternalServerError)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions/sort/canary/report", "tok-acme",
		[]byte(`{"version":2,"reporter":"rep-1","calls":20,"failures":0}`), nil), http.StatusInternalServerError)
	hs.Close()
	if after := statusOf(t, r); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused mutations changed the status:\n%+v\n%+v", before, after)
	}
	if _, err := os.Stat(filepath.Join(dir, "acme", "sort", "v000003.model")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused push wrote its model file (stat: %v)", err)
	}
	r.kill()

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	dec, dep, err := r2.ReportCanary(ctx, "acme", "sort", 2, "rep-1", 20, 0)
	if err != nil || dec != DecisionPending || dep.Canary.Calls != 20 {
		t.Fatalf("report after restart: (%q, %+v, %v), want pending at 20 calls", dec, dep.Canary, err)
	}
}

// TestJournalMutationAfterShutdownErrors: once Close or kill has closed the
// journal, every mutation errors and writes nothing, so the registry — and
// a restart over its DataDir — reads as shutdown left it.
func TestJournalMutationAfterShutdownErrors(t *testing.T) {
	for _, stop := range []struct {
		name string
		stop func(*Registry)
	}{{"close", (*Registry).Close}, {"kill", (*Registry).kill}} {
		t.Run(stop.name, func(t *testing.T) {
			dir := t.TempDir()
			r := newJournalRegistry(t, dir, nil)
			stageCanary(t, r, 10, 0)
			ctx := context.Background()
			sample := online.RemoteSample{Features: []float64{1}, Times: []float64{1, 2}, Predicted: 0}
			if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{sample, sample}); err != nil {
				t.Fatal(err)
			}
			want := statusOf(t, r).Deployment
			stop.stop(r)

			if dep, err := r.PushModel(ctx, "acme", "sort", boundaryArtifact(t, 2.5), ""); err == nil {
				t.Errorf("model push after %s: deployment %+v, nil error", stop.name, dep)
			}
			if _, _, err := r.ReportCanary(ctx, "acme", "sort", 2, "rep-1", 20, 0); err == nil {
				t.Errorf("report accepted after %s", stop.name)
			}
			if err := r.RegisterFunction(ctx, "acme", FunctionSpec{Name: "other", Features: []string{"n"}, Variants: []string{"a", "b"}}); err == nil {
				t.Errorf("registration accepted after %s", stop.name)
			}
			if _, err := r.PushObservations(ctx, "acme", "sort", []online.RemoteSample{sample}); err == nil {
				t.Errorf("observations accepted after %s", stop.name)
			}
			if _, err := r.Tune(ctx, "acme", "sort"); err == nil {
				t.Errorf("tune accepted after %s", stop.name)
			}
			if got := statusOf(t, r).Deployment; !reflect.DeepEqual(got, want) {
				t.Fatalf("deployment after refused mutations %+v, want %+v", got, want)
			}

			r2 := newJournalRegistry(t, dir, nil)
			defer r2.Close()
			if got := statusOf(t, r2).Deployment; !reflect.DeepEqual(got, want) {
				t.Fatalf("deployment after restart %+v (canary %+v), want %+v (canary %+v)", got, got.Canary, want, want.Canary)
			}
			if names, err := r2.Functions("acme"); err != nil || !reflect.DeepEqual(names, []string{"sort"}) {
				t.Fatalf("functions after restart %v (%v), want [sort]", names, err)
			}
		})
	}
}

// TestJournalRegisterWritesSpecFirst: a registration whose spec.json write
// fails registers nothing, so the identical retry fails too instead of
// succeeding against a function that exists only in memory.
func TestJournalRegisterWritesSpecFirst(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	ctx := context.Background()
	// A file where the tenant's directory belongs fails the write.
	obstacle := filepath.Join(dir, "acme")
	if err := os.WriteFile(obstacle, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 2; attempt++ {
		if err := r.RegisterFunction(ctx, "acme", testSpec()); err == nil {
			t.Fatalf("attempt %d registered although spec.json could not be written", attempt)
		}
		if names, _ := r.Functions("acme"); len(names) != 0 {
			t.Fatalf("attempt %d left functions %v in memory", attempt, names)
		}
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterFunction(ctx, "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	r.kill()
	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	if names, err := r2.Functions("acme"); err != nil || !reflect.DeepEqual(names, []string{"sort"}) {
		t.Fatalf("functions after restart %v (%v), want [sort]", names, err)
	}
}

// TestJournalInstallWritesModelFirst: a push whose model file cannot be
// written stores nothing — latest, the artifact table and the deployment
// stay as they were — so the retry stages the same version.
func TestJournalInstallWritesModelFirst(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	ctx := context.Background()
	if err := r.RegisterFunction(ctx, "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushModel(ctx, "acme", "sort", boundaryArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	want := statusOf(t, r).Deployment
	// A directory where the v2 model file belongs fails its write.
	obstacle := filepath.Join(dir, "acme", "sort", "v000002.model")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	if dep, err := r.PushModel(ctx, "acme", "sort", boundaryArtifact(t, 6.5), ""); err == nil {
		t.Fatalf("push acknowledged although its model file could not be written: %+v", dep)
	}
	if got := statusOf(t, r).Deployment; !reflect.DeepEqual(got, want) {
		t.Fatalf("deployment after the failed push %+v, want %+v", got, want)
	}
	if _, _, _, err := r.Artifact("acme", "sort", 2); !errors.Is(err, ErrNotFound) {
		t.Fatalf("artifact v2 after the failed push: %v, want ErrNotFound", err)
	}
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	dep, err := r.PushModel(ctx, "acme", "sort", boundaryArtifact(t, 6.5), "")
	if err != nil || dep.Latest != 2 || dep.Canary == nil || dep.Canary.Version != 2 {
		t.Fatalf("retried push: %+v (%v), want the v2 canary", dep, err)
	}
	r.kill()
	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	if c := statusOf(t, r2).Deployment.Canary; c == nil || c.Version != 2 {
		t.Fatalf("canary after restart %+v, want v2", c)
	}
}
