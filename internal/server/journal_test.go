package server

// Journal framing, crash-recovery and corruption-quarantine tests. The
// registry-level cases drive the real API surface (register, push, report)
// against a DataDir, then rebuild the registry over the same directory and
// assert what survived — kill() for crash semantics, Close() for orderly
// shutdown.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nitro/internal/ml"
	"nitro/internal/online"
)

func newJournalRegistry(t *testing.T, dir string, mutate func(*RegistryConfig)) *Registry {
	t.Helper()
	cfg := RegistryConfig{Tenants: testTenants(), DataDir: dir}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := NewRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stageCanary registers the test function, promotes v1, stages a v2 canary
// and reports some (insufficient) fleet progress against it, as the
// cumulative totals of reporter "rep-1".
func stageCanary(t *testing.T, r *Registry, calls, failures int64) {
	t.Helper()
	if err := r.RegisterFunction(context.Background(), "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 6.5), ""); err != nil {
		t.Fatal(err)
	}
	if calls > 0 {
		dec, _, err := r.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", calls, failures)
		if err != nil || dec != DecisionPending {
			t.Fatalf("staging report: decision %q err %v, want pending", dec, err)
		}
	}
}

// TestJournalResumeAfterKill: a killed daemon's restart resumes the
// in-flight canary at its recorded gate and fleet-aggregated counts.
func TestJournalResumeAfterKill(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	r.kill()

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	rec := r2.Recovery()
	if rec.CleanShutdown {
		t.Fatal("kill() reported a clean shutdown")
	}
	if rec.ResumedCanaries != 1 || rec.TailError != nil {
		t.Fatalf("recovery %+v, want one resumed canary and an intact tail", rec)
	}
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	c := dep.Canary
	if c == nil || c.Version != 2 || c.Calls != 20 || c.Failures != 1 {
		t.Fatalf("resumed canary = %+v, want v2 with 20 calls / 1 failure", c)
	}
	// The resumed episode settles normally: the reporter's baseline was
	// restored, so its totals reaching the gate promote.
	dec, _, err := r2.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", c.MinSamples, c.Failures)
	if err != nil || dec != DecisionPromoted {
		t.Fatalf("post-resume verdict %q err %v, want promoted", dec, err)
	}
}

// TestJournalCleanShutdown: Close writes the marker; the next start
// reports CleanShutdown and still resumes the live canary.
func TestJournalCleanShutdown(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 5, 0)
	r.Close()

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	rec := r2.Recovery()
	if !rec.CleanShutdown {
		t.Fatalf("recovery %+v, want CleanShutdown after Close", rec)
	}
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Canary == nil || dep.Canary.Calls != 5 {
		t.Fatalf("canary %+v, want resumed with 5 calls after orderly shutdown", dep.Canary)
	}
}

// TestJournalCorruptTailQuarantined: a torn tail (simulating death
// mid-append) is quarantined with a typed error; the intact prefix still
// replays and the daemon starts.
func TestJournalCorruptTailQuarantined(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	r.kill()

	// Tear the tail: chop the last 3 bytes off the final frame.
	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	rec := r2.Recovery()
	if rec.TailError == nil || rec.CorruptTail == "" {
		t.Fatalf("recovery %+v, want a typed corrupt-tail error", rec)
	}
	var tail *CorruptTailError
	if !errors.As(rec.TailError, &tail) {
		t.Fatalf("TailError %T is not *CorruptTailError", rec.TailError)
	}
	if rec.QuarantinePath == "" {
		t.Fatal("corrupt tail was not quarantined to a side file")
	}
	if _, err := os.Stat(rec.QuarantinePath); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	// The torn record was the last progress report; the canary still
	// resumes from the previous intact progress record.
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Canary == nil || dep.Canary.Version != 2 {
		t.Fatalf("canary %+v, want v2 resumed from the intact prefix", dep.Canary)
	}
}

// TestJournalChecksumMismatchQuarantined: a bit flip inside a frame body
// fails the CRC and quarantines from that frame on — no panic, no replay
// of the poisoned record.
func TestJournalChecksumMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	r.kill()

	path := filepath.Join(dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	rec := r2.Recovery()
	if rec.TailError == nil {
		t.Fatalf("recovery %+v, want checksum corruption detected", rec)
	}
	if rec.CleanShutdown {
		t.Fatal("corrupt tail cannot be a clean shutdown")
	}
}

// TestJournalGarbageFile: a journal that is pure garbage from byte zero
// quarantines whole; the daemon starts with artifact-store state only.
func TestJournalGarbageFile(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	r.kill()

	path := filepath.Join(dir, "journal.wal")
	if err := os.WriteFile(path, []byte("not a journal at all, sorry"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	rec := r2.Recovery()
	if rec.TailError == nil || rec.RecordsReplayed != 0 {
		t.Fatalf("recovery %+v, want zero replays and a corruption report", rec)
	}
	// No journal evidence: the canary aborts to stable, the pre-journal
	// behavior.
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Canary != nil || dep.Stable != 1 {
		t.Fatalf("deployment %+v, want canary aborted and stable v1", dep)
	}
}

// TestJournalValidatesAgainstArtifacts: a canary_start whose artifact was
// deleted out from under the journal is dropped, not resumed against
// missing bytes.
func TestJournalValidatesAgainstArtifacts(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	r.kill()

	if err := os.Remove(filepath.Join(dir, "acme", "sort", "v000002.model")); err != nil {
		t.Fatal(err)
	}

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	rec := r2.Recovery()
	if rec.ResumedCanaries != 0 || rec.DroppedRecords == 0 {
		t.Fatalf("recovery %+v, want the orphaned canary records dropped", rec)
	}
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Canary != nil || dep.Stable != 1 {
		t.Fatalf("deployment %+v, want stable v1 and no canary", dep)
	}
}

// TestJournalWALFirstPromotion: a canary_end(promoted) record with a stale
// deployment.json (crash between the journal append and the pointer
// rewrite) replays to the promoted state.
func TestJournalWALFirstPromotion(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 0, 0)
	r.kill()

	// Hand-append the verdict the crashed daemon journaled but never
	// applied to deployment.json.
	appendRawRecord(t, filepath.Join(dir, "journal.wal"),
		`{"op":"canary_end","tenant":"acme","fn":"sort","version":2,"decision":"promoted"}`)

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 2 || dep.Canary != nil || dep.LastDecision != DecisionPromoted {
		t.Fatalf("deployment %+v, want v2 promoted by WAL replay", dep)
	}

	// The replayed verdict must also be durable: recovery rewrote
	// deployment.json before compacting away the canary_end record, so a
	// second restart — with no further traffic to re-trigger a persist —
	// still sees the promotion instead of silently reverting to v1.
	r2.kill()
	r3 := newJournalRegistry(t, dir, nil)
	defer r3.Close()
	dep, err = r3.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 2 || dep.LastDecision != DecisionPromoted {
		t.Fatalf("second-restart deployment %+v, want the replayed promotion persisted", dep)
	}
}

// TestCanaryReportIdempotentPerReporter: reporter-keyed reports carry
// cumulative totals, so a report replayed by an at-least-once retry layer
// advances nothing; the per-reporter baselines ride canary_progress
// records, keeping the dedup intact across a daemon crash.
func TestCanaryReportIdempotentPerReporter(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 0, 0)

	report := func(reg *Registry, reporter string, calls, failures, wantCalls, wantFails int64) {
		t.Helper()
		dec, dep, err := reg.ReportCanary(context.Background(), "acme", "sort", 2, reporter, calls, failures)
		if err != nil || dec != DecisionPending {
			t.Fatalf("report(%q,%d,%d): (%q, %v), want pending", reporter, calls, failures, dec, err)
		}
		if dep.Canary.Calls != wantCalls || dep.Canary.Failures != wantFails {
			t.Fatalf("fleet counters %d/%d after report(%q,%d,%d), want %d/%d",
				dep.Canary.Calls, dep.Canary.Failures, reporter, calls, failures, wantCalls, wantFails)
		}
	}

	report(r, "p1", 20, 1, 20, 1)
	// The response was lost and the client retried the identical body: the
	// fleet aggregate must not move.
	report(r, "p1", 20, 1, 20, 1)
	// Progress folds in only the movement past the baseline; other
	// reporters contribute independently.
	report(r, "p1", 25, 1, 25, 1)
	report(r, "p2", 10, 0, 35, 1)
	report(r, "p3", 4, 0, 39, 1)

	// Crash mid-episode: the baselines replay from the journal, so even a
	// report retried *across the restart* is still a no-op.
	r.kill()
	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	report(r2, "p2", 10, 0, 39, 1)
	// A reporter whose counters went backwards restarted its local canary
	// slot; its fresh totals contribute from a zero baseline.
	report(r2, "p1", 5, 0, 44, 1)
}

// appendRawRecord frames and appends one JSON payload to a journal file.
func appendRawRecord(t *testing.T, path, payload string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE([]byte(payload)))
	copy(frame[8:], payload)
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
}

// TestJournalReplaysLegacyBakeoffRecords: a journal written by a daemon
// that still ran sequential bakeoffs replays. The progress record's
// bakeoff object is ignored, and the drift snapshot's bakeoff state (3),
// which this build no longer has, restores as healthy. The progress record
// carries no reporter baselines, as those daemons wrote for anonymous
// reports: reporter-keyed totals then fold in on top of its counts.
func TestJournalReplaysLegacyBakeoffRecords(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	stageCanary(t, r, 20, 1)
	r.kill()

	path := filepath.Join(dir, "journal.wal")
	appendRawRecord(t, path, `{"op":"canary_progress","tenant":"acme","fn":"sort","version":2,"calls":30,"failures":1,"bakeoff":{"n":12,"mean":0.1,"m2":0.02}}`)
	appendRawRecord(t, path, `{"op":"drift","tenant":"acme","fn":"sort","drift":{"seq":12,"samples":12,"state":3}}`)

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	if rec := r2.Recovery(); rec.DroppedRecords != 0 || rec.TailError != nil {
		t.Fatalf("recovery %+v, want every legacy record replayed", rec)
	}
	st, err := r2.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if c := st.Deployment.Canary; c == nil || c.Version != 2 || c.Calls != 30 || c.Failures != 1 {
		t.Fatalf("canary %+v, want v2 resumed at 30 calls / 1 failure", c)
	}
	if st.Drift.State != online.StateHealthy.String() || st.Drift.Samples != 12 {
		t.Fatalf("drift %+v, want the legacy snapshot restored as healthy", st.Drift)
	}
	dec, dep, err := r2.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", 5, 0)
	if err != nil || dec != DecisionPending || dep.Canary.Calls != 35 || dep.Canary.Failures != 1 {
		t.Fatalf("report after legacy replay: (%q, %+v, %v), want pending at 35 calls / 1 failure", dec, dep.Canary, err)
	}
}

// TestJournalCompaction: once the log passes the compaction threshold it
// is rewritten to the live state — strictly smaller, still resumable.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, func(cfg *RegistryConfig) {
		cfg.JournalCompactBytes = 256 // force compaction on the first verdict
	})
	stageCanary(t, r, 0, 0)
	// Roll the canary back (failure rate 100%) — the verdict triggers the
	// size check and compacts.
	if dec, _, err := r.ReportCanary(context.Background(), "acme", "sort", 2, "rep-1", 60, 60); err != nil || dec != DecisionRolledBack {
		t.Fatalf("decision %v err %v, want rolledback", dec, err)
	}
	size := r.journal.sizeBytes()
	if size == 0 {
		t.Fatal("compacted journal is empty (live drift state should remain)")
	}
	// Stage a fresh canary over the compacted log and prove a restart
	// still resumes it.
	if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 2.5), ""); err != nil {
		t.Fatal(err)
	}
	r.kill()
	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	dep, err := r2.Deployment("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Canary == nil || dep.Canary.Version != 3 {
		t.Fatalf("canary %+v, want v3 resumed after compaction", dep.Canary)
	}
}

// TestJournalDriftStateSurvivesRestart: fleet drift detector counters and
// state ride the journal across an orderly shutdown.
func TestJournalDriftStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	if err := r.RegisterFunction(context.Background(), "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	samples := make([]online.RemoteSample, 10)
	for i := range samples {
		samples[i] = online.RemoteSample{Features: []float64{float64(i)}, Times: []float64{1, 2}, Predicted: 0}
	}
	if _, err := r.PushObservations(context.Background(), "acme", "sort", samples); err != nil {
		t.Fatal(err)
	}
	before, err := r.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	after, err := r2.Status("acme", "sort")
	if err != nil {
		t.Fatal(err)
	}
	if after.Drift.Samples != before.Drift.Samples || after.Drift.State != before.Drift.State {
		t.Fatalf("drift after restart %+v, want %+v", after.Drift, before.Drift)
	}
}

// TestJournalFilesReplacedNotRewritten: every kind of registry file write,
// fsynced or not, replaces the file through a rename instead of truncating
// and rewriting it in place, so a crash mid-write cannot tear the file.
func TestJournalFilesReplacedNotRewritten(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	defer r.Close()
	if err := r.RegisterFunction(context.Background(), "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spec.json", "v000001.model", "deployment.json"} {
		path := filepath.Join(dir, "acme", "sort", name)
		for _, durable := range []bool{false, true} {
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.writeFile("acme", "sort", name, data, durable); err != nil {
				t.Fatal(err)
			}
			after, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if os.SameFile(before, after) {
				t.Errorf("%s (durable %v) was rewritten in place", name, durable)
			}
			if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, data) {
				t.Errorf("%s (durable %v) reads back %q (%v), want %q", name, durable, again, err, data)
			}
		}
	}
}

// TestJournalIgnoresTornTempFiles: half-written temp files a crash left
// beside good registry files are ignored on restart, and the next write
// replaces them.
func TestJournalIgnoresTornTempFiles(t *testing.T) {
	dir := t.TempDir()
	r := newJournalRegistry(t, dir, nil)
	if err := r.RegisterFunction(context.Background(), "acme", testSpec()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 4.5), ""); err != nil {
		t.Fatal(err)
	}
	r.kill()
	fnDir := filepath.Join(dir, "acme", "sort")
	for _, name := range []string{"spec.json", "v000001.model", "deployment.json"} {
		data, err := os.ReadFile(filepath.Join(fnDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fnDir, "."+name+".tmp"), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2 := newJournalRegistry(t, dir, nil)
	defer r2.Close()
	dep, err := r2.Deployment("acme", "sort")
	if err != nil || dep.Stable != 1 || dep.Latest != 1 {
		t.Fatalf("deployment after restart %+v (%v), want stable v1", dep, err)
	}
	if _, err := r2.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 6.5), ""); err != nil {
		t.Fatal(err)
	}
}

// TestJournalEnsembleArtifactFailsStart: a data dir holding an artifact of
// a removed kind (the committee's "ensemble", "knn", "tree" or "logistic")
// fails NewRegistry with the file's name rather than starting without that
// version.
func TestJournalEnsembleArtifactFailsStart(t *testing.T) {
	for kind, data := range removedKindArtifacts(t) {
		dir := t.TempDir()
		r := newJournalRegistry(t, dir, nil)
		if err := r.RegisterFunction(context.Background(), "acme", testSpec()); err != nil {
			t.Fatal(err)
		}
		if _, err := r.PushModel(context.Background(), "acme", "sort", boundaryArtifact(t, 4.5), ""); err != nil {
			t.Fatal(err)
		}
		r.Close()
		if err := os.WriteFile(filepath.Join(dir, "acme", "sort", "v000002.model"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := NewRegistry(RegistryConfig{Tenants: testTenants(), DataDir: dir})
		if err == nil || !strings.Contains(err.Error(), "v000002.model") || !strings.Contains(err.Error(), "removed") ||
			!errors.Is(err, ml.ErrKindRemoved) {
			t.Fatalf("NewRegistry over a %s artifact: %v, want the removed-kind error naming the file", kind, err)
		}
	}
}
