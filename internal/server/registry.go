// Package server implements the Nitro model registry daemon: a multi-tenant
// service that owns tuned models for many functions, trains new generations
// from observations pushed by deployed clients, and distributes versioned
// model artifacts with canary-gated promotion.
//
// The paper's workflow is offline: tune once, ship the model with the
// binary. In a fleet, that inverts — many processes run the same tuned
// function, each sees a slice of the input distribution, and the training
// corpus that matters is the union of what the fleet observes. The registry
// centralizes that loop: clients push observations (features + per-variant
// timings), a fleet-wide drift detector decides when the pooled evidence
// says the deployed model is stale, a bounded job queue retrains with the
// same pipeline as offline tuning, and the resulting artifact is promoted
// through a fraction-gated canary before the whole fleet adopts it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/obs/trace"
	"nitro/internal/online"
)

// Sentinel errors; the HTTP layer maps them onto status codes.
var (
	ErrUnauthorized = errors.New("server: unauthorized")
	ErrNotFound     = errors.New("server: not found")
	ErrConflict     = errors.New("server: conflict")
	ErrQuota        = errors.New("server: quota exceeded")
	ErrInvalid      = errors.New("server: invalid request")
	ErrPrecondition = errors.New("server: precondition failed")
)

// nameRe restricts tenant and function names: they become path segments in
// both the HTTP API and the artifact store.
var nameRe = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// Quotas bounds one tenant's footprint on the daemon. Zero values mean
// unlimited.
type Quotas struct {
	// MaxFunctions caps registered functions.
	MaxFunctions int `json:"max_functions,omitempty"`
	// MaxPendingJobs caps tune jobs that have not reached a terminal state.
	MaxPendingJobs int `json:"max_pending_jobs,omitempty"`
	// SamplesPerSec rate-limits pushed observation samples with a token
	// bucket; SampleBurst is the bucket depth (default 4x the rate).
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
	SampleBurst   float64 `json:"sample_burst,omitempty"`
}

// TenantConfig declares one tenant: its namespace, its bearer token, and
// its quotas.
type TenantConfig struct {
	Name   string `json:"name"`
	Token  string `json:"token"`
	Quotas Quotas `json:"quotas"`
}

// FunctionSpec registers one tuned function: the feature and variant names
// fix the wire shape of observations and the class range of models.
type FunctionSpec struct {
	Name     string   `json:"name"`
	Features []string `json:"features"`
	Variants []string `json:"variants"`
	// Default is the fallback variant index (constraint-reject fallback on
	// the client side).
	Default int `json:"default"`
}

func (s FunctionSpec) validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("%w: bad function name %q", ErrInvalid, s.Name)
	}
	if len(s.Variants) < 2 {
		return fmt.Errorf("%w: need at least 2 variants", ErrInvalid)
	}
	if len(s.Features) < 1 {
		return fmt.Errorf("%w: need at least 1 feature", ErrInvalid)
	}
	if s.Default < 0 || s.Default >= len(s.Variants) {
		return fmt.Errorf("%w: default variant %d out of range", ErrInvalid, s.Default)
	}
	return nil
}

// CanaryPolicy gates fleet-wide promotion of a retrained model.
type CanaryPolicy struct {
	// Fraction of client traffic the challenger serves during the gate.
	Fraction float64 `json:"fraction"`
	// MinSamples is the fleet-wide challenger call count required before a
	// verdict.
	MinSamples int64 `json:"min_samples"`
	// MaxFailureRate is the highest tolerated challenger failure share.
	MaxFailureRate float64 `json:"max_failure_rate"`
}

func (p CanaryPolicy) normalized() CanaryPolicy {
	if p.Fraction <= 0 || p.Fraction > 1 {
		p.Fraction = 0.2
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 50
	}
	if p.MaxFailureRate <= 0 {
		p.MaxFailureRate = 0.1
	}
	return p
}

// Canary decision strings, reported to clients.
const (
	DecisionNone       = "none"
	DecisionPending    = "pending"
	DecisionPromoted   = "promoted"
	DecisionRolledBack = "rolledback"
)

// CanaryState is the server-side canary: which version is challenging, the
// serving fraction clients must apply, and the fleet-aggregated outcome
// counters.
type CanaryState struct {
	Version int    `json:"version"`
	ETag    string `json:"etag"`
	// Trace is the episode's correlation id: the trace of the request (or
	// tune job) that staged this challenger. It survives journal replay, so
	// a canary resumed after a crash still reports the original provenance.
	Trace          string  `json:"trace,omitempty"`
	Fraction       float64 `json:"fraction"`
	MinSamples     int64   `json:"min_samples"`
	MaxFailureRate float64 `json:"max_failure_rate"`
	Calls          int64   `json:"calls"`
	Failures       int64   `json:"failures"`
}

// Deployment is what a polling client acts on: the stable version everyone
// should run, plus the optional canary challenger.
type Deployment struct {
	Function string `json:"function"`
	// Stable is 0 while no model has ever been promoted.
	Stable     int          `json:"stable"`
	StableETag string       `json:"stable_etag,omitempty"`
	Latest     int          `json:"latest"`
	Canary     *CanaryState `json:"canary,omitempty"`
	// LastDecision reports how the most recent canary episode ended.
	LastDecision string `json:"last_decision"`
	// LastDecisionTrace is the correlation id of the request that settled
	// the most recent canary episode — the verdict's end of the span tree.
	LastDecisionTrace string `json:"last_decision_trace,omitempty"`
}

// FunctionStatus is the observable state of one registered function.
type FunctionStatus struct {
	Spec         FunctionSpec      `json:"spec"`
	Deployment   Deployment        `json:"deployment"`
	Observations int64             `json:"observations"`
	Reservoir    int               `json:"reservoir"`
	Drift        online.FleetStats `json:"drift"`
	PendingJobs  int               `json:"pending_jobs"`
}

type artifact struct {
	version int
	data    []byte
	etag    string
}

type funcState struct {
	spec      FunctionSpec
	artifacts map[int]artifact
	latest    int
	stable    int
	canary    *CanaryState
	// lastDec is how the last episode settled; Deployment reports pending
	// while a canary is live.
	lastDec string
	// lastDecTrace is the trace id of the request that settled the most
	// recent episode (persisted with the deployment pointer).
	lastDecTrace string
	// canaryReporters holds each reporter's last accepted cumulative totals
	// for the live canary episode; reporter-keyed reports fold in only the
	// movement past this baseline, so at-least-once retries cannot
	// double-count fleet samples. Reset at every episode boundary.
	canaryReporters map[string]reporterCounts

	detector  *online.FleetDetector
	reservoir []autotuner.Observation
	// obsCount counts the samples this process ingested for the function;
	// it also numbers them, as each reservoir entry's Seq.
	obsCount int64

	pendingTunes int
	autoTuned    bool // an auto-triggered retrain is pending or canarying
}

type tenantState struct {
	cfg    TenantConfig
	funcs  map[string]*funcState
	bucket tokenBucket
	tm     tenantMetrics
}

// tenantMetrics splits the hot-path counters by tenant. Cardinality is
// bounded by construction: tenants are registered in RegistryConfig, never
// minted from request data, so the labeled series set is fixed at startup.
type tenantMetrics struct {
	requests      atomic.Int64
	observations  atomic.Int64
	pulls         atomic.Int64
	tunes         atomic.Int64
	canaryReports atomic.Int64
}

// tokenBucket is a classic token bucket with an injectable clock.
type tokenBucket struct {
	rate   float64 // tokens per second; <= 0 disables limiting
	burst  float64
	tokens float64
	last   time.Time
}

func newBucket(q Quotas) tokenBucket {
	b := tokenBucket{rate: q.SamplesPerSec, burst: q.SampleBurst}
	if b.rate > 0 && b.burst <= 0 {
		b.burst = 4 * b.rate
	}
	b.tokens = b.burst
	return b
}

func (b *tokenBucket) allow(now time.Time, n float64) bool {
	if b.rate <= 0 {
		return true
	}
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// RegistryConfig configures the model registry.
type RegistryConfig struct {
	// Tenants declares the accepted namespaces and bearer tokens.
	Tenants []TenantConfig
	// DataDir, when set, persists specs and artifacts; the registry reloads
	// them on construction.
	DataDir string
	// Workers / QueueCapacity size the tuning job queue (defaults 2 / 16).
	Workers       int
	QueueCapacity int
	// Train configures the retraining pipeline (zero value: SVM defaults).
	Train autotuner.TrainOptions
	// Drift configures the fleet detector windows/thresholds (zero value:
	// online.Policy defaults).
	Drift online.Policy
	// Canary gates promotion of retrained models.
	Canary CanaryPolicy
	// ReservoirSize caps the per-function observation corpus (default 512).
	ReservoirSize int
	// MinRetrainSamples gates drift-triggered auto-tunes (default 32).
	MinRetrainSamples int
	// MaxInflight caps concurrent API requests (default 256). Under
	// overload the API sheds lower-priority classes first — observation
	// pushes beyond 50% of the cap, artifact/deployment pulls beyond 75%,
	// control traffic only at the full cap — with 503 + Retry-After, so
	// the canary lifecycle keeps making progress while telemetry degrades.
	MaxInflight int
	// JournalCompactBytes triggers journal compaction (rewrite from live
	// state) once the log grows past this size (default 1 MiB).
	JournalCompactBytes int64
	// Clock is injectable for rate-limit tests (default time.Now).
	Clock func() time.Time
	// Log, when non-nil, receives a structured slog event for every
	// control-plane transition (and feeds the flight recorder it carries).
	// nil disables logging; every call site is nil-safe.
	Log *trace.Log
	// TraceSource mints trace ids for requests that arrive without an
	// X-Nitro-Trace-Id header (default crypto/rand; seed it for
	// deterministic test replays).
	TraceSource *trace.Source
}

// RecoveryReport describes what journal recovery did at startup.
type RecoveryReport struct {
	// Journal reports whether journaling is active (DataDir set).
	Journal bool `json:"journal"`
	// CleanShutdown reports that the previous run closed in order (the
	// journal ended with a clean-shutdown marker); false after a crash.
	CleanShutdown bool `json:"clean_shutdown"`
	// RecordsReplayed counts intact journal records applied at startup.
	RecordsReplayed int `json:"records_replayed"`
	// ResumedCanaries counts canary episodes that were live when the
	// previous run died and are live again now, at their recorded fraction
	// and fleet sample counts.
	ResumedCanaries int `json:"resumed_canaries"`
	// DroppedRecords counts records that referenced state the on-disk
	// artifact store no longer corroborates (missing artifact, etag
	// mismatch, settled episode); they are skipped, not fatal.
	DroppedRecords int `json:"dropped_records"`
	// CorruptTail / QuarantinePath describe a torn or corrupt journal tail:
	// the reason it failed validation and where its bytes were preserved.
	CorruptTail    string `json:"corrupt_tail,omitempty"`
	QuarantinePath string `json:"quarantine_path,omitempty"`
	// TailError is the typed corruption error (nil when the tail was
	// intact).
	TailError *CorruptTailError `json:"-"`
}

// Registry is the daemon's state: tenants, their functions, the artifact
// store and the tuning queue. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*tenantState
	byToken map[string]*tenantState
	jobs    *autotuner.JobQueue
	cfg     RegistryConfig

	journal  *journal
	recovery RecoveryReport
	shed     *shedder

	metrics serverMetrics
	// routeHist times each API route (fixed route set, one histogram per
	// route, exported as nitro_server_http_request_seconds{route=...}).
	routeHist map[string]*obs.Histogram
}

// NewRegistry validates the tenant set, reloads persisted state when
// DataDir is set, and starts the tuning workers.
func NewRegistry(cfg RegistryConfig) (*Registry, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("%w: no tenants configured", ErrInvalid)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 16
	}
	if cfg.ReservoirSize <= 0 {
		cfg.ReservoirSize = 512
	}
	if cfg.MinRetrainSamples <= 0 {
		cfg.MinRetrainSamples = 32
	}
	if cfg.JournalCompactBytes <= 0 {
		cfg.JournalCompactBytes = 1 << 20
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	cfg.Canary = cfg.Canary.normalized()
	if cfg.TraceSource == nil {
		cfg.TraceSource = trace.NewSource()
	}
	r := &Registry{
		tenants:   make(map[string]*tenantState),
		byToken:   make(map[string]*tenantState),
		cfg:       cfg,
		routeHist: make(map[string]*obs.Histogram),
	}
	for _, route := range apiRoutes {
		r.routeHist[route] = obs.NewHistogram()
	}
	r.shed = &shedder{max: int64(cfg.MaxInflight), m: &r.metrics, log: cfg.Log}
	for _, tc := range cfg.Tenants {
		if !nameRe.MatchString(tc.Name) {
			return nil, fmt.Errorf("%w: bad tenant name %q", ErrInvalid, tc.Name)
		}
		if tc.Token == "" {
			return nil, fmt.Errorf("%w: tenant %q has an empty token", ErrInvalid, tc.Name)
		}
		if _, dup := r.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate tenant %q", ErrInvalid, tc.Name)
		}
		if _, dup := r.byToken[tc.Token]; dup {
			return nil, fmt.Errorf("%w: tenants share a token", ErrInvalid)
		}
		ts := &tenantState{cfg: tc, funcs: make(map[string]*funcState), bucket: newBucket(tc.Quotas)}
		r.tenants[tc.Name] = ts
		r.byToken[tc.Token] = ts
	}
	if cfg.DataDir != "" {
		if err := r.load(); err != nil {
			return nil, err
		}
		if err := r.openAndReplayJournal(); err != nil {
			return nil, err
		}
	}
	r.jobs = autotuner.NewJobQueue(cfg.Workers, cfg.QueueCapacity, cfg.Log)
	r.logRecovery()
	return r, nil
}

// logRecovery emits the startup recovery summary and re-attaches each
// resumed canary to its original episode trace — the id staged before the
// crash carries through restart, so the span tree stays whole.
func (r *Registry) logRecovery() {
	if r.cfg.Log == nil {
		return
	}
	rep := r.recovery
	if rep.Journal {
		r.cfg.Log.Event(context.Background(), "server", "recovery",
			trace.F("clean_shutdown", strconv.FormatBool(rep.CleanShutdown)),
			trace.F("records_replayed", strconv.Itoa(rep.RecordsReplayed)),
			trace.F("resumed_canaries", strconv.Itoa(rep.ResumedCanaries)),
			trace.F("dropped_records", strconv.Itoa(rep.DroppedRecords)),
			trace.F("corrupt_tail", strconv.FormatBool(rep.CorruptTail != "")))
	}
	for tn, fs := range r.funcs() {
		if c := fs.canary; c != nil {
			r.cfg.Log.Event(trace.With(context.Background(), c.Trace),
				"server", "canary.resume", trace.F("tenant", tn), trace.F("fn", fs.spec.Name),
				trace.F("version", strconv.Itoa(c.Version)),
				trace.F("calls", strconv.FormatInt(c.Calls, 10)))
		}
	}
}

// funcs yields every registered function with its tenant, sorted by tenant
// and then function name, so whatever is rendered from them is
// deterministic.
func (r *Registry) funcs() iter.Seq2[string, *funcState] {
	return func(yield func(string, *funcState) bool) {
		for _, tn := range slices.Sorted(maps.Keys(r.tenants)) {
			funcs := r.tenants[tn].funcs
			for _, fn := range slices.Sorted(maps.Keys(funcs)) {
				if !yield(tn, funcs[fn]) {
					return
				}
			}
		}
	}
}

// openAndReplayJournal opens DataDir/journal.wal, replays its records over
// the artifact-store state load() restored, and compacts the log to the
// resulting live state. A corrupt tail is quarantined and reported in the
// recovery report, never fatal.
func (r *Registry) openAndReplayJournal() error {
	if err := os.MkdirAll(r.cfg.DataDir, 0o755); err != nil {
		return err
	}
	j, records, corrupt, err := openJournal(filepath.Join(r.cfg.DataDir, "journal.wal"))
	if err != nil {
		return err
	}
	r.journal = j
	r.recovery.Journal = true
	if corrupt != nil {
		r.recovery.TailError = corrupt
		r.recovery.CorruptTail = corrupt.Reason
		r.recovery.QuarantinePath = corrupt.QuarantinePath
		r.metrics.journalQuarantined.Add(1)
	}
	r.replayJournal(records)
	return r.compactJournalLocked()
}

// replayJournal runs every intact record through apply, the transition
// function the live handlers use. Records the on-disk artifact store does
// not corroborate are counted and skipped, so a stale or partially
// compacted journal degrades to the pre-journal behavior instead of
// resurrecting phantom state.
func (r *Registry) replayJournal(records []journalRecord) {
	for i, rec := range records {
		if rec.Op == opCleanShutdown {
			// Only a marker in tail position — with nothing corrupt after
			// it — proves an orderly close.
			r.recovery.CleanShutdown = i == len(records)-1 && r.recovery.TailError == nil
			continue
		}
		if fs := r.findFunc(rec.Tenant, rec.Function); fs != nil && apply(fs, rec) {
			r.recovery.RecordsReplayed++
		} else {
			r.recovery.DroppedRecords++
		}
	}
	for _, fs := range r.funcs() {
		if fs.canary != nil {
			r.recovery.ResumedCanaries++
			r.metrics.canariesResumed.Add(1)
		}
	}
	r.metrics.journalReplayed.Add(int64(r.recovery.RecordsReplayed))
	r.metrics.journalDropped.Add(int64(r.recovery.DroppedRecords))
}

// apply performs one journaled transition on fs: a canary start, progress
// or verdict (with the detector's swap or rollback), or the restore of a
// drift snapshot. The live handlers call it once the record is durable,
// and recovery calls it for every record it reads back, so the two cannot
// disagree. It changes nothing and reports false when fs's artifact store
// does not corroborate rec: a start whose artifact is gone, changed or
// already stable, progress for an episode that is not live, a promotion to
// a missing version, an unknown op.
func apply(fs *funcState, rec journalRecord) bool {
	switch rec.Op {
	case opCanaryStart:
		if a, ok := fs.artifacts[rec.Version]; !ok || a.etag != rec.ETag || rec.Version == fs.stable {
			return false
		}
		// A start replaces any live challenger: it was never promoted.
		fs.canary = &CanaryState{
			Version:        rec.Version,
			ETag:           rec.ETag,
			Trace:          trace.Sanitize(rec.Trace),
			Fraction:       rec.Fraction,
			MinSamples:     rec.MinSamples,
			MaxFailureRate: rec.MaxFailureRate,
		}
		fs.canaryReporters = nil
		fs.autoTuned = rec.Auto
	case opCanaryProgress:
		if fs.canary == nil || fs.canary.Version != rec.Version {
			return false
		}
		// Cumulative counters: only the last progress record matters, and
		// replaying one twice cannot double-count.
		fs.canary.Calls, fs.canary.Failures = rec.Calls, rec.Failures
		fs.canaryReporters = rec.Reporters
	case opCanaryEnd:
		_, stored := fs.artifacts[rec.Version]
		switch {
		case rec.Decision == DecisionPromoted && stored:
			fs.stable = rec.Version
			fs.detector.OnSwap()
		case rec.Decision == DecisionRolledBack:
			fs.detector.OnRollback()
		default:
			return false
		}
		if fs.canary != nil && fs.canary.Version == rec.Version {
			fs.canary, fs.canaryReporters = nil, nil
			fs.autoTuned = false
		}
		fs.lastDec = rec.Decision
		fs.lastDecTrace = trace.Sanitize(rec.Trace)
	case opDrift:
		if rec.Drift == nil {
			return false
		}
		fs.detector.Restore(*rec.Drift)
	default:
		return false
	}
	return true
}

func (r *Registry) findFunc(tenant, fn string) *funcState {
	ts, ok := r.tenants[tenant]
	if !ok {
		return nil
	}
	return ts.funcs[fn]
}

// Recovery reports what journal recovery did when this registry started.
func (r *Registry) Recovery() RecoveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recovery
}

// journalAppend appends one durable record (no-op when journaling is off).
func (r *Registry) journalAppend(rec journalRecord) error {
	if r.journal == nil {
		return nil
	}
	if err := r.journal.append(rec); err != nil {
		return err
	}
	r.metrics.journalAppends.Add(1)
	return nil
}

// commit makes rec durable and only then applies it to fs: the one way a
// live handler changes canary or drift state. A failed append changes
// nothing.
func (r *Registry) commit(fs *funcState, rec journalRecord) error {
	if err := r.journalAppend(rec); err != nil {
		return err
	}
	apply(fs, rec)
	return nil
}

// commitDrift journals fs's drift detector as it stands. Drift records are
// snapshots taken after the detector moved, so applying one live changes
// nothing, and replaying it restores that state machine, not just the
// counters. ctx supplies the causing request's trace id.
func (r *Registry) commitDrift(ctx context.Context, tenant string, fs *funcState) error {
	snap := fs.detector.Snapshot()
	return r.commit(fs, journalRecord{Op: opDrift, Tenant: tenant, Function: fs.spec.Name,
		Trace: trace.From(ctx), Drift: &snap})
}

// checkWritable reports why a mutation must not start — the journal was
// closed or has failed — so a refused mutation writes nothing anywhere.
// Always nil without a DataDir.
func (r *Registry) checkWritable() error {
	if r.journal == nil {
		return nil
	}
	return r.journal.check()
}

// liveRecordsLocked renders the registry's current durable state as a
// minimal record list (compaction target): one drift snapshot per active
// detector, one start (+ cumulative progress) per live canary. Iteration
// is sorted so compaction output is deterministic.
func (r *Registry) liveRecordsLocked() []journalRecord {
	var recs []journalRecord
	for tn, fs := range r.funcs() {
		fn := fs.spec.Name
		if snap := fs.detector.Snapshot(); snap.Samples > 0 || snap.Windows > 0 || snap.State != online.StateHealthy {
			recs = append(recs, journalRecord{Op: opDrift, Tenant: tn, Function: fn, Drift: &snap})
		}
		if c := fs.canary; c != nil {
			// The episode trace rides along, so compaction preserves the
			// canary's provenance exactly as the original start record did.
			recs = append(recs, journalRecord{Op: opCanaryStart, Tenant: tn, Function: fn,
				Version: c.Version, ETag: c.ETag, Trace: c.Trace, Fraction: c.Fraction,
				MinSamples: c.MinSamples, MaxFailureRate: c.MaxFailureRate, Auto: fs.autoTuned})
			if c.Calls > 0 || len(fs.canaryReporters) > 0 {
				recs = append(recs, journalRecord{Op: opCanaryProgress, Tenant: tn, Function: fn,
					Version: c.Version, Calls: c.Calls, Failures: c.Failures,
					Reporters: fs.canaryReporters})
			}
		}
	}
	return recs
}

// compactJournalLocked rewrites the journal to the live state (snapshot +
// truncate). The rewrite drops settled canary_end records, so every
// deployment pointer they back is written first, and fsynced with its
// directory: once the records are gone, the file is the only copy.
func (r *Registry) compactJournalLocked() error {
	if r.journal == nil {
		return nil
	}
	for tn, fs := range r.funcs() {
		if err := r.writeDeployment(tn, fs.spec.Name, fs.pointer(), true); err != nil {
			return err
		}
	}
	recs := r.liveRecordsLocked()
	if err := r.journal.rewrite(recs); err != nil {
		return err
	}
	r.metrics.journalCompactions.Add(1)
	r.cfg.Log.Event(context.Background(), "server", "journal.compact",
		trace.F("live_records", strconv.Itoa(len(recs))),
		trace.F("bytes", strconv.FormatInt(r.journal.sizeBytes(), 10)))
	return nil
}

// Close drains the tuning queue (workers may still append journal records
// through their completion callbacks), flushes a final drift snapshot per
// active detector, writes the clean-shutdown marker and closes the
// journal. A restart after Close sees CleanShutdown=true and resumes any
// canary that was live — orderly shutdown persists strictly more state
// than a crash, never less. With a DataDir, every mutation after Close
// errors.
func (r *Registry) Close() {
	r.jobs.Close()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return
	}
	defer r.journal.close()
	if r.checkWritable() != nil {
		return // closed or failed: nothing more reaches the file
	}
	for _, rec := range r.liveRecordsLocked() {
		if rec.Op == opDrift {
			// Drift counters accumulate outside transition points; the drain
			// flush makes the pooled sample counts durable too.
			r.journalAppend(rec) //nolint:errcheck // best-effort drain
		}
	}
	r.journalAppend(journalRecord{Op: opCleanShutdown}) //nolint:errcheck // best-effort marker
	r.cfg.Log.Event(context.Background(), "server", "shutdown.clean")
}

// kill simulates a crash for tests: the journal handle closes with no
// drain, marker or compaction — on-disk state is exactly what fsync'd
// appends left behind, and every later mutation errors — then the job
// workers are stopped so the process can be torn down.
func (r *Registry) kill() {
	r.mu.Lock()
	if r.journal != nil {
		r.journal.close()
	}
	r.mu.Unlock()
	r.jobs.Close()
}

// Authenticate resolves a bearer token to a tenant name.
func (r *Registry) Authenticate(token string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ts, ok := r.byToken[token]; ok && token != "" {
		return ts.cfg.Name, nil
	}
	return "", ErrUnauthorized
}

func (r *Registry) tenant(name string) (*tenantState, error) {
	ts, ok := r.tenants[name]
	if !ok {
		return nil, fmt.Errorf("%w: tenant %q", ErrNotFound, name)
	}
	return ts, nil
}

func (ts *tenantState) fn(name string) (*funcState, error) {
	fs, ok := ts.funcs[name]
	if !ok {
		return nil, fmt.Errorf("%w: function %q", ErrNotFound, name)
	}
	return fs, nil
}

// RegisterFunction creates (or idempotently re-registers) a function spec.
// Changing the spec of an existing function is a conflict: models trained
// against the old shape would silently misdispatch. ctx carries the
// request's trace id for the structured event log.
func (r *Registry) RegisterFunction(ctx context.Context, tenant string, spec FunctionSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return err
	}
	if old, ok := ts.funcs[spec.Name]; ok {
		if specEqual(old.spec, spec) {
			return nil
		}
		return fmt.Errorf("%w: function %q already registered with a different spec", ErrConflict, spec.Name)
	}
	if q := ts.cfg.Quotas.MaxFunctions; q > 0 && len(ts.funcs) >= q {
		return fmt.Errorf("%w: tenant %q at max functions (%d)", ErrQuota, tenant, q)
	}
	if err := r.checkWritable(); err != nil {
		return err
	}
	// spec.json first: a function the registry serves must survive a
	// restart, so a failed write registers nothing.
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	if err := r.writeFile(tenant, spec.Name, "spec.json", data, false); err != nil {
		return err
	}
	ts.funcs[spec.Name] = r.newFuncState(spec)
	r.metrics.functions.Add(1)
	r.cfg.Log.Event(ctx, "server", "function.register",
		trace.F("tenant", tenant), trace.F("fn", spec.Name),
		trace.F("variants", strconv.Itoa(len(spec.Variants))))
	return nil
}

func (r *Registry) newFuncState(spec FunctionSpec) *funcState {
	return &funcState{
		spec:      spec,
		artifacts: make(map[int]artifact),
		lastDec:   DecisionNone,
		detector:  online.NewFleetDetector(r.cfg.Drift),
	}
}

func specEqual(a, b FunctionSpec) bool {
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) == string(bb)
}

// Functions lists a tenant's registered function names, sorted.
func (r *Registry) Functions(tenant string) ([]string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(ts.funcs))
	for name := range ts.funcs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

// Status reports one function's observable state.
func (r *Registry) Status(tenant, fn string) (FunctionStatus, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return FunctionStatus{}, err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return FunctionStatus{}, err
	}
	return FunctionStatus{
		Spec:         fs.spec,
		Deployment:   r.deploymentLocked(fs),
		Observations: fs.obsCount,
		Reservoir:    len(fs.reservoir),
		Drift:        fs.detector.Stats(),
		PendingJobs:  fs.pendingTunes,
	}, nil
}

// Deployment reports the stable/canary versions a client must serve.
func (r *Registry) Deployment(tenant, fn string) (Deployment, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return Deployment{}, err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return Deployment{}, err
	}
	return r.deploymentLocked(fs), nil
}

func (r *Registry) deploymentLocked(fs *funcState) Deployment {
	d := Deployment{Function: fs.spec.Name, Stable: fs.stable, Latest: fs.latest,
		LastDecision: fs.lastDec, LastDecisionTrace: fs.lastDecTrace}
	if a, ok := fs.artifacts[fs.stable]; ok {
		d.StableETag = a.etag
	}
	if fs.canary != nil {
		c := *fs.canary
		d.Canary = &c
		d.LastDecision = DecisionPending
	}
	return d
}

// Artifact returns the stored bytes and etag of a model version; version 0
// selects the stable version.
func (r *Registry) Artifact(tenant, fn string, version int) (artifactOut []byte, etag string, v int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return nil, "", 0, err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return nil, "", 0, err
	}
	if version == 0 {
		version = fs.stable
	}
	a, ok := fs.artifacts[version]
	if !ok {
		return nil, "", 0, fmt.Errorf("%w: function %q has no model version %d", ErrNotFound, fn, version)
	}
	r.metrics.artifactPulls.Add(1)
	ts.tm.pulls.Add(1)
	return a.data, a.etag, a.version, nil
}

// PushModel installs an externally trained artifact (e.g. from offline
// nitro-tune). ifMatch carries the HTTP If-Match precondition: "" means
// unconditional, "*" requires some artifact to exist, otherwise it must
// equal the current latest artifact's etag — two racing pushers cannot both
// win. The model is re-stamped latest+1 (zero CreatedAt preserved) so the
// registry owns the version sequence; the canonical bytes/etag are
// returned. The new version deploys through the same canary gate as a
// retrained model.
func (r *Registry) PushModel(ctx context.Context, tenant, fn string, data []byte, ifMatch string) (Deployment, error) {
	m, err := ml.DecodeArtifact(data, "")
	if err != nil {
		return Deployment{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return Deployment{}, err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return Deployment{}, err
	}
	cur, hasCur := fs.artifacts[fs.latest]
	switch {
	case ifMatch == "":
	case ifMatch == "*":
		if !hasCur {
			return Deployment{}, fmt.Errorf("%w: no current artifact", ErrPrecondition)
		}
	case !hasCur || ifMatch != cur.etag:
		return Deployment{}, fmt.Errorf("%w: etag %s is not current", ErrPrecondition, ifMatch)
	}
	if err := r.installLocked(ctx, tenant, fs, m, false); err != nil {
		return Deployment{}, err
	}
	return r.deploymentLocked(fs), nil
}

// installLocked stores a candidate model as version latest+1 and stages it
// for deployment: the first-ever version promotes directly to stable (there
// is no incumbent to protect), later versions start a canary episode. A
// candidate arriving while another canary is live replaces it (the older
// challenger was never promoted). ctx's trace id becomes the episode trace.
func (r *Registry) installLocked(ctx context.Context, tenant string, fs *funcState, m *ml.Model, auto bool) error {
	if err := validateAgainstSpec(m, fs.spec); err != nil {
		return err
	}
	if err := r.checkWritable(); err != nil {
		return err
	}
	version := fs.latest + 1
	meta := ml.ModelMeta{Version: version}
	if m.Meta != nil {
		meta.TrainedOn = m.Meta.TrainedOn
	}
	m.Meta = &meta
	data, etag, err := ml.EncodeArtifact(m)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	// Artifact-first: the model bytes reach disk before the registry stores
	// them, and before any record that references them.
	if err := r.writeFile(tenant, fs.spec.Name, fmt.Sprintf("v%06d.model", version), data, false); err != nil {
		return err
	}
	fs.artifacts[version] = artifact{version: version, data: data, etag: etag}
	fs.latest = version
	r.metrics.artifactsStored.Add(1)
	r.cfg.Log.Event(ctx, "server", "model.push",
		trace.F("tenant", tenant), trace.F("fn", fs.spec.Name),
		trace.F("version", strconv.Itoa(version)), trace.F("auto", strconv.FormatBool(auto)))
	if fs.stable == 0 {
		// The first version settles as promoted at once. Its durable record
		// is the deployment pointer, written before the promotion applies;
		// the detector snapshot after the swap follows.
		rec := journalRecord{Op: opCanaryEnd, Tenant: tenant, Function: fs.spec.Name,
			Version: version, Decision: DecisionPromoted, Trace: trace.From(ctx)}
		if err := r.writeDeployment(tenant, fs.spec.Name, persistedDeployment{Stable: version,
			Latest: version, LastDec: DecisionPromoted, LastDecTrace: rec.Trace}, false); err != nil {
			return err
		}
		apply(fs, rec)
		r.cfg.Log.Event(ctx, "server", "canary.promote",
			trace.F("tenant", tenant), trace.F("fn", fs.spec.Name),
			trace.F("version", strconv.Itoa(version)), trace.F("direct", "true"))
		return r.commitDrift(ctx, tenant, fs)
	}
	pol := r.cfg.Canary
	if err := r.commit(fs, journalRecord{Op: opCanaryStart, Tenant: tenant, Function: fs.spec.Name,
		Trace: trace.From(ctx), Version: version, ETag: etag, Fraction: pol.Fraction,
		MinSamples: pol.MinSamples, MaxFailureRate: pol.MaxFailureRate, Auto: auto}); err != nil {
		return err
	}
	r.metrics.canariesStarted.Add(1)
	r.cfg.Log.Event(ctx, "server", "canary.start",
		trace.F("tenant", tenant), trace.F("fn", fs.spec.Name),
		trace.F("version", strconv.Itoa(version)),
		trace.F("fraction", strconv.FormatFloat(pol.Fraction, 'g', -1, 64)),
		trace.F("auto", strconv.FormatBool(auto)))
	return nil
}

// validateAgainstSpec rejects models that do not fit spec's features and
// variants: every client's install would refuse them with ErrModelMismatch.
func validateAgainstSpec(m *ml.Model, spec FunctionSpec) error {
	if m == nil || m.Classifier == nil {
		return fmt.Errorf("%w: artifact has no classifier", ErrInvalid)
	}
	if err := m.CheckShape(len(spec.Features), len(spec.Variants)); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// ReportCanary folds one client's challenger outcomes into the fleet
// aggregate and returns the resulting decision. calls/failures are the
// reporter's *cumulative* totals for the episode, and only the movement past
// the reporter's last accepted totals is applied — a report replayed by an
// at-least-once retry layer (applied once, response lost, body re-sent) is
// a no-op instead of a double count. An empty reporter is rejected with
// ErrInvalid before anything is counted. Reports for a version that is not
// the live canary return the settled decision for that version (promoted if
// it became stable, rolled back otherwise) so laggard clients converge.
func (r *Registry) ReportCanary(ctx context.Context, tenant, fn string, version int, reporter string, calls, failures int64) (string, Deployment, error) {
	if reporter == "" {
		return "", Deployment{}, fmt.Errorf("%w: canary report without a reporter", ErrInvalid)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return "", Deployment{}, err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return "", Deployment{}, err
	}
	ts.tm.canaryReports.Add(1)
	if fs.canary == nil || fs.canary.Version != version {
		dec := DecisionRolledBack
		if version == fs.stable {
			dec = DecisionPromoted
		} else if fs.canary != nil {
			dec = DecisionNone // a different canary episode is live
		}
		return dec, r.deploymentLocked(fs), nil
	}
	if calls < 0 || failures < 0 || failures > calls {
		return "", Deployment{}, fmt.Errorf("%w: bad canary report (%d calls, %d failures)", ErrInvalid, calls, failures)
	}
	c := fs.canary
	prev := fs.canaryReporters[reporter]
	if calls < prev.Calls || failures < prev.Failures {
		// The reporter's counters went backwards: its local canary slot
		// restarted, so its new totals contribute from a fresh baseline.
		prev = reporterCounts{}
	}
	addCalls, addFails := calls-prev.Calls, failures-prev.Failures
	total, failed, episode := c.Calls+addCalls, c.Failures+addFails, c.Trace
	logReport := func() {
		r.cfg.Log.Event(ctx, "server", "canary.report",
			trace.F("tenant", tenant), trace.F("fn", fn),
			trace.F("version", strconv.Itoa(version)), trace.F("episode", episode),
			trace.F("reporter", reporter),
			trace.F("calls", strconv.FormatInt(total, 10)),
			trace.F("failures", strconv.FormatInt(failed, 10)))
	}
	if total < c.MinSamples {
		if addCalls == 0 && addFails == 0 {
			// Replayed duplicate: nothing moves, so nothing is written.
			logReport()
			return DecisionPending, r.deploymentLocked(fs), nil
		}
		// Journal the cumulative fleet counters (and reporter baselines) so
		// a crashed daemon resumes the gate mid-count instead of restarting
		// it from zero — and still dedupes reports retried across the crash.
		reporters := make(map[string]reporterCounts, len(fs.canaryReporters)+1)
		maps.Copy(reporters, fs.canaryReporters)
		reporters[reporter] = reporterCounts{Calls: calls, Failures: failures}
		if err := r.commit(fs, journalRecord{Op: opCanaryProgress, Tenant: tenant,
			Function: fn, Trace: trace.From(ctx), Version: version,
			Calls: total, Failures: failed, Reporters: reporters}); err != nil {
			return "", Deployment{}, err
		}
		logReport()
		return DecisionPending, r.deploymentLocked(fs), nil
	}
	// WAL-first: the verdict is durable before it applies, and before
	// deployment.json changes; a crash between the two replays the
	// canary_end record and converges.
	decision, event := DecisionRolledBack, "canary.rollback"
	if float64(failed)/float64(total) <= c.MaxFailureRate {
		decision, event = DecisionPromoted, "canary.promote"
	}
	if err := r.commit(fs, journalRecord{Op: opCanaryEnd, Tenant: tenant, Function: fn,
		Version: version, Decision: decision, Trace: trace.From(ctx)}); err != nil {
		return "", Deployment{}, err
	}
	if decision == DecisionPromoted {
		r.metrics.canariesPromoted.Add(1)
	} else {
		r.metrics.canariesRolledBack.Add(1)
	}
	logReport()
	// The verdict trace is the request that settled the episode; the episode
	// field links back to the request that started it.
	r.cfg.Log.Event(ctx, "server", event,
		trace.F("tenant", tenant), trace.F("fn", fn),
		trace.F("version", fmt.Sprint(version)), trace.F("episode", episode))
	if err := r.commitDrift(ctx, tenant, fs); err != nil {
		return "", Deployment{}, err
	}
	if err := r.writeDeployment(tenant, fn, fs.pointer(), false); err != nil {
		return "", Deployment{}, err
	}
	if r.journal != nil && r.journal.sizeBytes() > r.cfg.JournalCompactBytes {
		if err := r.compactJournalLocked(); err != nil {
			return "", Deployment{}, err
		}
	}
	return decision, r.deploymentLocked(fs), nil
}

// PushObservations ingests samples pushed by a client: rate-limited by the
// tenant's token bucket, folded into the bounded reservoir (labelled
// retraining corpus) and into the fleet drift detector. A detector verdict
// that asks for a retrain auto-submits a tune job when enough corpus is
// available. Returns the fleet drift state after ingestion.
func (r *Registry) PushObservations(ctx context.Context, tenant, fn string, samples []online.RemoteSample) (online.FleetStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return online.FleetStats{}, err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return online.FleetStats{}, err
	}
	// Validate shapes and values before charging the rate limit: a
	// malformed batch is rejected whole and must not burn quota. The wire
	// decoders already refuse NaN and ±Inf; this refuses them from
	// in-process callers too.
	for i, s := range samples {
		if len(s.Features) != len(fs.spec.Features) || len(s.Times) != len(fs.spec.Variants) {
			return online.FleetStats{}, fmt.Errorf("%w: sample shape %dx%d, want %dx%d",
				ErrInvalid, len(s.Features), len(s.Times), len(fs.spec.Features), len(fs.spec.Variants))
		}
		if slices.ContainsFunc(s.Features, nonFinite) || slices.ContainsFunc(s.Times, nonFinite) {
			return online.FleetStats{}, fmt.Errorf("%w: sample %d carries NaN or ±Inf; observations carry finite values only", ErrInvalid, i)
		}
		if s.Predicted < -1 || s.Predicted >= len(fs.spec.Variants) {
			return online.FleetStats{}, fmt.Errorf("%w: sample %d predicts variant %d, outside -1..%d", ErrInvalid, i, s.Predicted, len(fs.spec.Variants)-1)
		}
	}
	if err := r.checkWritable(); err != nil {
		return online.FleetStats{}, err
	}
	if !ts.bucket.allow(r.cfg.Clock(), float64(len(samples))) {
		r.metrics.samplesRejected.Add(int64(len(samples)))
		return online.FleetStats{}, fmt.Errorf("%w: observation rate limit", ErrQuota)
	}
	wantRetrain := false
	stateBefore := fs.detector.State()
	for _, s := range samples {
		fs.obsCount++
		fs.reservoir = append(fs.reservoir, autotuner.Observation{Seq: fs.obsCount, Features: s.Features, Times: s.Times})
		if over := len(fs.reservoir) - r.cfg.ReservoirSize; over > 0 {
			fs.reservoir = fs.reservoir[over:]
		}
		v := fs.detector.Ingest(s)
		if v.WantRetrain || v.DriftDetected {
			wantRetrain = true
		}
	}
	r.metrics.samplesIngested.Add(int64(len(samples)))
	ts.tm.observations.Add(int64(len(samples)))
	if wantRetrain && !fs.autoTuned && fs.pendingTunes == 0 && len(fs.reservoir) >= r.cfg.MinRetrainSamples {
		if _, err := r.submitTuneLocked(ctx, ts, fs, true); err == nil {
			r.metrics.autoTunes.Add(1)
		}
	}
	if fs.detector.State() != stateBefore {
		r.cfg.Log.Event(ctx, "server", "drift.transition",
			trace.F("tenant", tenant), trace.F("fn", fn),
			trace.F("from", stateBefore.String()), trace.F("to", fs.detector.State().String()))
		// A drift-state transition is the durable event; raw counter churn
		// between transitions is flushed at shutdown drain instead of per
		// push, keeping the fsync rate off the observation hot path.
		if err := r.commitDrift(ctx, tenant, fs); err != nil {
			return online.FleetStats{}, err
		}
	}
	return fs.detector.Stats(), nil
}

// Tune submits an explicit tuning job over the function's observation
// corpus and returns the job id.
func (r *Registry) Tune(ctx context.Context, tenant, fn string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return "", err
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return "", err
	}
	if err := r.checkWritable(); err != nil {
		return "", err
	}
	id, err := r.submitTuneLocked(ctx, ts, fs, false)
	if err != nil {
		return "", err
	}
	// The submit moved the detector to retraining; make that durable (the
	// job itself is not journaled — a crashed retrain simply re-triggers).
	if jerr := r.commitDrift(ctx, tenant, fs); jerr != nil {
		return id, jerr
	}
	return id, nil
}

func (r *Registry) submitTuneLocked(ctx context.Context, ts *tenantState, fs *funcState, auto bool) (string, error) {
	if len(fs.reservoir) < 2 {
		return "", fmt.Errorf("%w: %d observations, need >= 2", ErrInvalid, len(fs.reservoir))
	}
	if q := ts.cfg.Quotas.MaxPendingJobs; q > 0 {
		pending := 0
		for _, f := range ts.funcs {
			pending += f.pendingTunes
		}
		if pending >= q {
			return "", fmt.Errorf("%w: tenant %q at max pending tune jobs (%d)", ErrQuota, ts.cfg.Name, q)
		}
	}
	instances := make([]autotuner.Instance, len(fs.reservoir))
	for i, o := range fs.reservoir {
		instances[i] = autotuner.Instance{
			ID:       fmt.Sprintf("obs-%d", o.Seq),
			Features: append([]float64(nil), o.Features...),
			Times:    append([]float64(nil), o.Times...),
		}
	}
	tenant, fn := ts.cfg.Name, fs.spec.Name
	// Detach the trace id from the request context: the job outlives the
	// request, and a live ctx must not leak cancellation into the worker.
	jobCtx := trace.With(context.Background(), trace.From(ctx))
	id, err := r.jobs.Submit(autotuner.TuneJob{
		Function:    tenant + "/" + fn,
		Owner:       tenant,
		Instances:   instances,
		Options:     r.cfg.Train,
		BaseVersion: fs.latest,
		Ctx:         jobCtx,
		Done:        func(st autotuner.JobStatus) { r.onTuneDone(tenant, fn, st) },
	})
	if err != nil {
		if errors.Is(err, autotuner.ErrQueueFull) {
			return "", fmt.Errorf("%w: tune queue full", ErrQuota)
		}
		if errors.Is(err, autotuner.ErrOwnerThrottled) {
			return "", fmt.Errorf("%w: tenant %q at fair-share tune limit", ErrQuota, tenant)
		}
		return "", err
	}
	fs.pendingTunes++
	if auto {
		fs.autoTuned = true
	}
	fs.detector.OnRetrainStart()
	r.metrics.tunesSubmitted.Add(1)
	ts.tm.tunes.Add(1)
	r.cfg.Log.Event(ctx, "server", "tune.submit",
		trace.F("tenant", tenant), trace.F("fn", fn), trace.F("job", id),
		trace.F("auto", strconv.FormatBool(auto)),
		trace.F("corpus", strconv.Itoa(len(fs.reservoir))))
	return id, nil
}

// onTuneDone runs on a job-queue worker when a tune finishes: install the
// candidate (canary-staged) or record the failure. The job status carries
// the submitting request's trace id, so the staged canary inherits the
// provenance of the tune request that caused it.
func (r *Registry) onTuneDone(tenant, fn string, st autotuner.JobStatus) {
	ctx := trace.With(context.Background(), st.Trace)
	r.mu.Lock()
	defer r.mu.Unlock()
	ts, err := r.tenant(tenant)
	if err != nil {
		return
	}
	fs, err := ts.fn(fn)
	if err != nil {
		return
	}
	fs.pendingTunes--
	state, msg := string(st.State), st.Error
	if st.State == autotuner.JobDone {
		err := r.installLocked(ctx, tenant, fs, st.Model, fs.autoTuned)
		if err == nil {
			r.metrics.tunesDone.Add(1)
			r.cfg.Log.Event(ctx, "server", "tune.done",
				trace.F("tenant", tenant), trace.F("fn", fn), trace.F("job", st.ID),
				trace.F("version", strconv.Itoa(st.Version)))
			return
		}
		state, msg = "uninstallable", err.Error()
	}
	fs.autoTuned = false
	fs.detector.OnRetrainFailed()
	r.commitDrift(ctx, tenant, fs) //nolint:errcheck // best-effort; no caller to surface to
	r.metrics.tunesFailed.Add(1)
	r.cfg.Log.Error(ctx, "server", "tune.failed",
		trace.F("tenant", tenant), trace.F("fn", fn), trace.F("job", st.ID),
		trace.F("state", state), trace.F("error", msg))
}

// Job reports a tune job's status; jobs are tenant-scoped, so another
// tenant's job, like an unknown one or a finished one the queue no longer
// retains, is not found.
func (r *Registry) Job(tenant, id string) (autotuner.JobStatus, error) {
	st, ok := r.jobs.Status(id)
	if !ok || st.Owner != tenant {
		return autotuner.JobStatus{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	st.Model = nil // distributed as an artifact, not via job status
	return st, nil
}

// --- persistence ---------------------------------------------------------

type persistedDeployment struct {
	Stable  int    `json:"stable"`
	Latest  int    `json:"latest"`
	LastDec string `json:"last_decision"`
	// LastDecTrace makes the settling request's trace id durable with the
	// pointer it settled, so "which request promoted v3" survives restarts.
	LastDecTrace string `json:"last_decision_trace,omitempty"`
}

func (r *Registry) funcDir(tenant, fn string) string {
	return filepath.Join(r.cfg.DataDir, tenant, fn)
}

// pointer is fs's settled deployment pointer, as deployment.json holds it.
func (fs *funcState) pointer() persistedDeployment {
	return persistedDeployment{Stable: fs.stable, Latest: fs.latest,
		LastDec: fs.lastDec, LastDecTrace: fs.lastDecTrace}
}

// writeFile replaces one file in fn's directory under DataDir (a no-op
// without one). The bytes go to a temp file beside it that is renamed over
// the target, so a crash leaves the old file or the new one, never a torn
// one. The temp name starts with a dot, so load never reads it. With durable
// set, the file and the rename are fsynced before writeFile returns.
func (r *Registry) writeFile(tenant, fn, name string, data []byte, durable bool) error {
	if r.cfg.DataDir == "" {
		return nil
	}
	dir := r.funcDir(tenant, fn)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := filepath.Join(dir, "."+name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil && durable {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if durable {
		return syncDir(dir)
	}
	return nil
}

// writeDeployment writes fn's deployment pointer (see writeFile for durable).
// The canary episode is persisted separately, through the write-ahead
// journal.
func (r *Registry) writeDeployment(tenant, fn string, p persistedDeployment, durable bool) error {
	data, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return r.writeFile(tenant, fn, "deployment.json", data, durable)
}

// load restores specs, artifacts and deployment pointers from DataDir.
func (r *Registry) load() error {
	for name, ts := range r.tenants {
		tdir := filepath.Join(r.cfg.DataDir, name)
		entries, err := os.ReadDir(tdir)
		if errors.Is(err, os.ErrNotExist) {
			continue
		} else if err != nil {
			return err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			fs, err := r.loadFunc(filepath.Join(tdir, e.Name()))
			if err != nil {
				return fmt.Errorf("server: loading %s/%s: %w", name, e.Name(), err)
			}
			if fs != nil {
				ts.funcs[fs.spec.Name] = fs
				r.metrics.functions.Add(1)
			}
		}
	}
	return nil
}

func (r *Registry) loadFunc(dir string) (*funcState, error) {
	specData, err := os.ReadFile(filepath.Join(dir, "spec.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	var spec FunctionSpec
	if err := json.Unmarshal(specData, &spec); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	fs := r.newFuncState(spec)
	matches, err := filepath.Glob(filepath.Join(dir, "v*.model"))
	if err != nil {
		return nil, err
	}
	for _, m := range matches {
		var v int
		if _, err := fmt.Sscanf(filepath.Base(m), "v%d.model", &v); err != nil || v <= 0 {
			continue
		}
		data, err := os.ReadFile(m)
		if err != nil {
			return nil, err
		}
		if _, err := ml.DecodeArtifact(data, ""); err != nil {
			return nil, fmt.Errorf("artifact %s: %w", filepath.Base(m), err)
		}
		fs.artifacts[v] = artifact{version: v, data: data, etag: ml.ETagOf(data)}
		if v > fs.latest {
			fs.latest = v
		}
	}
	depData, err := os.ReadFile(filepath.Join(dir, "deployment.json"))
	if err == nil {
		var dep persistedDeployment
		if err := json.Unmarshal(depData, &dep); err != nil {
			return nil, err
		}
		if _, ok := fs.artifacts[dep.Stable]; ok {
			fs.stable = dep.Stable
			fs.lastDec = dep.LastDec
			fs.lastDecTrace = trace.Sanitize(dep.LastDecTrace)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	// A canary that was live at shutdown is not restored here: journal
	// replay (openAndReplayJournal) resumes it.
	return fs, nil
}
