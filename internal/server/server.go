package server

// Daemon assembly: the registry's API plus the repo's telemetry surface
// (Prometheus /metrics, /vars, /healthz) on one hardened listener. The
// listener construction is obs.ServeHandler, so the daemon inherits the
// same Slowloris timeouts and graceful-shutdown behaviour as the metrics
// endpoint — one hardening path, not two.

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync/atomic"

	"nitro/internal/obs"
	"nitro/internal/obs/trace"
)

// serverMetrics counts registry activity; exported through an obs.Collector
// as nitro_server_* series.
type serverMetrics struct {
	requests           atomic.Int64
	authFailures       atomic.Int64
	functions          atomic.Int64
	samplesIngested    atomic.Int64
	samplesRejected    atomic.Int64
	artifactPulls      atomic.Int64
	pullsNotModified   atomic.Int64
	artifactsStored    atomic.Int64
	tunesSubmitted     atomic.Int64
	tunesDone          atomic.Int64
	tunesFailed        atomic.Int64
	autoTunes          atomic.Int64
	canariesStarted    atomic.Int64
	canariesPromoted   atomic.Int64
	canariesRolledBack atomic.Int64
	canariesResumed    atomic.Int64

	journalAppends     atomic.Int64
	journalReplayed    atomic.Int64
	journalDropped     atomic.Int64
	journalQuarantined atomic.Int64
	journalCompactions atomic.Int64

	shedObservations atomic.Int64
	shedPulls        atomic.Int64
	shedControl      atomic.Int64
	shedRecoveries   atomic.Int64
}

// Collector exports the registry's counters.
func (r *Registry) Collector() obs.Collector {
	counter := func(name, help string, v *atomic.Int64) obs.Metric {
		return obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Value: float64(v.Load())}
	}
	return func(emit func(obs.Metric)) {
		m := &r.metrics
		emit(counter("nitro_server_requests_total", "API requests received.", &m.requests))
		emit(counter("nitro_server_auth_failures_total", "Requests rejected for bad or missing tokens.", &m.authFailures))
		emit(obs.Metric{Name: "nitro_server_functions", Help: "Registered functions across all tenants.",
			Kind: obs.KindGauge, Value: float64(m.functions.Load())})
		emit(counter("nitro_server_observations_total", "Observation samples ingested.", &m.samplesIngested))
		emit(counter("nitro_server_observations_rejected_total", "Observation samples rejected by rate limits.", &m.samplesRejected))
		emit(counter("nitro_server_artifact_pulls_total", "Model artifact pulls served (including 304s).", &m.artifactPulls))
		emit(counter("nitro_server_artifact_pulls_not_modified_total", "Model pulls answered 304 via If-None-Match.", &m.pullsNotModified))
		emit(counter("nitro_server_artifacts_stored_total", "Model artifact versions stored.", &m.artifactsStored))
		emit(counter("nitro_server_tune_jobs_submitted_total", "Tune jobs submitted.", &m.tunesSubmitted))
		emit(counter("nitro_server_tune_jobs_done_total", "Tune jobs finished successfully.", &m.tunesDone))
		emit(counter("nitro_server_tune_jobs_failed_total", "Tune jobs that failed or produced an uninstallable model.", &m.tunesFailed))
		emit(counter("nitro_server_auto_tunes_total", "Tune jobs auto-triggered by fleet drift detection.", &m.autoTunes))
		emit(counter("nitro_server_canaries_started_total", "Canary episodes started.", &m.canariesStarted))
		emit(counter("nitro_server_canaries_promoted_total", "Canary episodes that promoted the challenger.", &m.canariesPromoted))
		emit(counter("nitro_server_canaries_rolled_back_total", "Canary episodes rolled back.", &m.canariesRolledBack))
		emit(counter("nitro_server_canaries_resumed_total", "Canary episodes resumed from the journal after a restart.", &m.canariesResumed))
		emit(counter("nitro_server_journal_appends_total", "Durable journal records appended.", &m.journalAppends))
		emit(counter("nitro_server_journal_records_replayed_total", "Journal records replayed at startup.", &m.journalReplayed))
		emit(counter("nitro_server_journal_records_dropped_total", "Journal records dropped at replay (uncorroborated by the artifact store).", &m.journalDropped))
		emit(counter("nitro_server_journal_tail_quarantined_total", "Corrupt journal tails quarantined at startup.", &m.journalQuarantined))
		emit(counter("nitro_server_journal_compactions_total", "Journal compactions (snapshot + truncate).", &m.journalCompactions))
		shed := func(class string, v *atomic.Int64) obs.Metric {
			return obs.Counter("nitro_server_shed_total", "Requests shed by overload admission control.",
				float64(v.Load()), obs.Label{Key: "class", Value: class})
		}
		emit(shed("observations", &m.shedObservations))
		emit(shed("pulls", &m.shedPulls))
		emit(shed("control", &m.shedControl))
		emit(counter("nitro_server_shed_recoveries_total", "Transitions from shedding back to full admission.", &m.shedRecoveries))

		// Per-tenant activity split. Cardinality is bounded: the tenant set
		// is fixed at construction, never minted from request data.
		tenant := func(name, help, tn string, v int64) obs.Metric {
			return obs.Counter(name, help, float64(v), obs.Label{Key: "tenant", Value: tn})
		}
		r.mu.Lock()
		var tnames []string
		for n := range r.tenants {
			tnames = append(tnames, n)
		}
		sort.Strings(tnames)
		type tcounts struct {
			name                                  string
			requests, obsv, pulls, tunes, reports int64
		}
		counts := make([]tcounts, 0, len(tnames))
		for _, n := range tnames {
			tm := &r.tenants[n].tm
			counts = append(counts, tcounts{name: n, requests: tm.requests.Load(),
				obsv: tm.observations.Load(), pulls: tm.pulls.Load(),
				tunes: tm.tunes.Load(), reports: tm.canaryReports.Load()})
		}
		rec := r.recovery
		r.mu.Unlock()
		for _, c := range counts {
			emit(tenant("nitro_server_tenant_requests_total", "Authenticated API requests per tenant.", c.name, c.requests))
			emit(tenant("nitro_server_tenant_observations_total", "Observation samples ingested per tenant.", c.name, c.obsv))
			emit(tenant("nitro_server_tenant_artifact_pulls_total", "Model artifact pulls served per tenant (including 304s).", c.name, c.pulls))
			emit(tenant("nitro_server_tenant_tune_jobs_total", "Tune jobs submitted per tenant (manual and auto).", c.name, c.tunes))
			emit(tenant("nitro_server_tenant_canary_reports_total", "Canary reports accepted per tenant.", c.name, c.reports))
		}

		// Per-route latency. The route set is the fixed apiRoutes list.
		for _, route := range apiRoutes {
			if h := r.routeHist[route]; h != nil {
				emit(obs.HistogramMetric("nitro_server_http_request_seconds",
					"API request latency by route.", h, obs.DefaultBounds(),
					obs.Label{Key: "route", Value: route}))
			}
		}

		// Startup recovery outcome as gauges, so dashboards can alert on a
		// crashy daemon (clean_shutdown 0) or replay loss without scraping
		// /vars.
		b2f := func(b bool) float64 {
			if b {
				return 1
			}
			return 0
		}
		gauge := func(name, help string, v float64) obs.Metric {
			return obs.Metric{Name: name, Help: help, Kind: obs.KindGauge, Value: v}
		}
		emit(gauge("nitro_server_recovery_journal", "Whether the durable journal is active (1) or disabled (0).", b2f(rec.Journal)))
		emit(gauge("nitro_server_recovery_clean_shutdown", "Whether the previous run shut down cleanly (1) or crashed (0).", b2f(rec.CleanShutdown)))
		emit(gauge("nitro_server_recovery_records_replayed", "Journal records replayed at the last startup.", float64(rec.RecordsReplayed)))
		emit(gauge("nitro_server_recovery_resumed_canaries", "Canary episodes resumed at the last startup.", float64(rec.ResumedCanaries)))
		emit(gauge("nitro_server_recovery_dropped_records", "Journal records dropped at the last startup.", float64(rec.DroppedRecords)))
		emit(gauge("nitro_server_recovery_corrupt_tail", "Whether the last startup quarantined a corrupt journal tail.", b2f(rec.CorruptTail != "")))
	}
}

// ObsConfig configures the daemon's observability plane: the structured
// event stream, trace-id minting, the flight recorder and the opt-in
// profiling surface. The zero value keeps the flight recorder (always on,
// it is cheap) and disables everything else.
type ObsConfig struct {
	// LogWriter receives the JSON slog event stream, one object per line
	// (nil disables the stream; events still reach the flight ring).
	LogWriter io.Writer
	// Debug lowers the stream threshold from Info to Debug, emitting
	// per-request events. Leave off in production: Debug events always
	// reach the flight ring regardless.
	Debug bool
	// Clock stamps log events (default time.Now; inject a fake for
	// byte-identical double-run transcripts).
	Clock trace.Clock
	// TraceSeed, when non-zero, makes server-minted trace ids
	// deterministic (tests and smoke transcripts); zero uses crypto/rand.
	TraceSeed int64
	// FlightCapacity sizes the flight ring (default
	// trace.DefaultFlightCapacity).
	FlightCapacity int
	// Profiling mounts net/http/pprof under /debug/pprof/ and registers
	// the Go runtime metrics collector. Off by default: the profiling
	// surface is unauthenticated, so only enable it on trusted networks.
	Profiling bool
}

// Config assembles a daemon.
type Config struct {
	// Addr is the listen address (e.g. ":9090"; ":0" picks a free port).
	Addr string
	// Registry configures tenants, quotas, tuning and canary gating.
	Registry RegistryConfig
	// HTTP hardens the listener; the zero value selects obs defaults.
	HTTP obs.ServerConfig
	// Obs configures tracing, logging, the flight recorder and profiling.
	Obs ObsConfig
}

// Daemon is a running nitro-server: registry + telemetry on one listener.
type Daemon struct {
	reg       *Registry
	obs       *obs.Registry
	srv       *obs.Server
	flight    *trace.Recorder
	profiling bool
}

// NewDaemon builds the registry and its telemetry registry without
// listening yet. The observability plane is assembled here: one flight
// recorder and one trace-stamped event log shared by the registry, the
// job queue and the admission controller.
func NewDaemon(cfg Config) (*Daemon, error) {
	capacity := cfg.Obs.FlightCapacity
	if capacity <= 0 {
		capacity = trace.DefaultFlightCapacity
	}
	flight := trace.NewRecorder(capacity)
	if cfg.Registry.Log == nil {
		level := slog.LevelInfo
		if cfg.Obs.Debug {
			level = slog.LevelDebug
		}
		cfg.Registry.Log = trace.NewLog(trace.LogConfig{
			Writer: cfg.Obs.LogWriter, Level: level,
			Clock: cfg.Obs.Clock, Recorder: flight,
		})
	} else if rec := cfg.Registry.Log.Recorder(); rec != nil {
		flight = rec
	}
	if cfg.Registry.TraceSource == nil && cfg.Obs.TraceSeed != 0 {
		cfg.Registry.TraceSource = trace.NewSeededSource(cfg.Obs.TraceSeed)
	}
	reg, err := NewRegistry(cfg.Registry)
	if err != nil {
		return nil, err
	}
	oreg := obs.NewRegistry()
	oreg.Register(reg.Collector())
	if cfg.Obs.Profiling {
		oreg.Register(obs.RuntimeCollector())
	}
	oreg.RegisterVar("recovery", func() any { return reg.Recovery() })
	return &Daemon{reg: reg, obs: oreg, flight: flight, profiling: cfg.Obs.Profiling}, nil
}

// Registry exposes the daemon's registry (tests and the smoke harness).
func (d *Daemon) Registry() *Registry { return d.reg }

// Obs exposes the daemon's telemetry registry for extra collectors.
func (d *Daemon) Obs() *obs.Registry { return d.obs }

// Flight exposes the daemon's flight recorder (the SIGQUIT dump path and
// tests read it directly).
func (d *Daemon) Flight() *trace.Recorder { return d.flight }

// Recovery reports what journal recovery did when the daemon started.
func (d *Daemon) Recovery() RecoveryReport { return d.reg.Recovery() }

// Handler returns the daemon's full HTTP surface: the authenticated API
// under /api/v1, the flight-recorder dump at /debug/flight, the optional
// pprof surface, plus the telemetry routes at the root.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/api/v1/", d.reg.APIHandler())
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(d.flight.DumpJSON())
	})
	if d.profiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.Handle("/", d.obs.Handler())
	return mux
}

// Start listens on cfg.Addr with the hardened obs listener path.
func (d *Daemon) Start(cfg Config) error {
	srv, err := obs.ServeHandler(cfg.Addr, d.Handler(), cfg.HTTP)
	if err != nil {
		return err
	}
	d.srv = srv
	return nil
}

// Addr reports the bound listen address (useful with ":0").
func (d *Daemon) Addr() string {
	if d.srv == nil {
		return ""
	}
	return d.srv.Addr()
}

// Shutdown gracefully drains in-flight requests, stops the tuning workers,
// flushes pending fleet-drift state to the journal and writes the
// clean-shutdown marker, so the next start skips torn-tail forensics and
// resumes any live canary from a fully drained journal.
func (d *Daemon) Shutdown(ctx context.Context) error {
	var err error
	if d.srv != nil {
		err = d.srv.Shutdown(ctx)
	}
	d.reg.Close()
	return err
}

// Kill simulates a crash for chaos tests: the listener closes abruptly
// (in-flight requests are severed) and the registry's journal handle drops
// with no drain, marker or compaction — on-disk state is exactly what the
// fsync'd appends left behind, as after SIGKILL.
func (d *Daemon) Kill() {
	if d.srv != nil {
		d.srv.Close() //nolint:errcheck // crash semantics: nothing to report
	}
	d.reg.kill()
}

// ShedRecoveries reports how many times the admission controller
// transitioned from shedding back to full admission (benchmarks and the
// serving study read this without scraping /metrics).
func (d *Daemon) ShedRecoveries() int64 { return d.reg.metrics.shedRecoveries.Load() }
