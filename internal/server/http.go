package server

// HTTP/JSON API of the registry daemon, mounted under /api/v1. Every route
// requires a tenant bearer token; tenants only ever see their own
// namespace, so two tenants can register functions with the same name
// without interference. Model artifacts travel as opaque bytes with strong
// ETags: pulls honour If-None-Match (cache revalidation costs a 304, not a
// body), pushes honour If-Match (lost-update protection between racing
// publishers).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"nitro/internal/obs/trace"
	"nitro/internal/online"
)

// apiRoutes is the fixed route-name set used as histogram keys for
// nitro_server_http_request_seconds{route=...}. Cardinality is bounded by
// this list — route labels never come from request data.
var apiRoutes = []string{
	"register", "list", "status", "deployment", "pull",
	"push", "observations", "tune", "report", "job",
}

// maxBodyBytes bounds request bodies (model artifacts and observation
// batches are small; anything larger is abuse).
const maxBodyBytes = 8 << 20

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrUnauthorized):
		code = http.StatusUnauthorized
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrConflict):
		code = http.StatusConflict
	case errors.Is(err, ErrQuota):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrInvalid):
		code = http.StatusBadRequest
	case errors.Is(err, ErrPrecondition):
		code = http.StatusPreconditionFailed
	}
	writeJSON(w, code, apiError{Error: err.Error()})
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return nil
}

// shedClass ranks routes by how droppable they are under overload:
// observation pushes are pure telemetry (clients re-batch and resend),
// artifact/deployment pulls can wait a poll cycle, control-plane calls
// (registration, pushes, canary reports) are shed only at the hard cap —
// the canary lifecycle keeps converging while the fleet backs off.
type shedClass int

const (
	classObservation shedClass = iota
	classPull
	classControl
)

// shedder is a prioritized concurrent-request limiter: class thresholds
// are fractions of one shared in-flight cap, so pressure from cheap
// traffic sheds cheap traffic first.
type shedder struct {
	max      int64
	inflight atomic.Int64
	shedding atomic.Bool
	m        *serverMetrics
	log      *trace.Log // nil-safe; shed-episode transitions only
}

// threshold returns the class's admission ceiling.
func (s *shedder) threshold(class shedClass) int64 {
	switch class {
	case classObservation:
		return s.max / 2
	case classPull:
		return s.max * 3 / 4
	default:
		return s.max
	}
}

// acquire admits or sheds one request; on true the caller must release.
func (s *shedder) acquire(class shedClass) bool {
	n := s.inflight.Add(1)
	if n <= s.threshold(class) {
		return true
	}
	s.inflight.Add(-1)
	if s.shedding.CompareAndSwap(false, true) {
		// Episode transitions only, not per-shed: the log stays quiet under
		// sustained overload while the counters below carry the volume.
		s.log.Event(nil, "server", "shed.start",
			trace.F("inflight", fmt.Sprint(n)), trace.F("max", fmt.Sprint(s.max)))
	}
	switch class {
	case classObservation:
		s.m.shedObservations.Add(1)
	case classPull:
		s.m.shedPulls.Add(1)
	default:
		s.m.shedControl.Add(1)
	}
	return false
}

// release ends one admitted request; dropping back below half the lowest
// threshold after a shed episode counts as a recovery transition.
func (s *shedder) release() {
	n := s.inflight.Add(-1)
	if n < s.threshold(classObservation)/2+1 && s.shedding.CompareAndSwap(true, false) {
		s.m.shedRecoveries.Add(1)
		s.log.Event(nil, "server", "shed.end", trace.F("inflight", fmt.Sprint(n)))
	}
}

// instrument wraps a handler with the per-route observability stack:
// prioritized admission control (shed responses are 503 with a Retry-After
// hint, which the client's backoff honors — a fleet pushed away comes back
// spread out, not in a herd), trace correlation (the inbound
// X-Nitro-Trace-Id is sanitized and attached to the request context, or a
// fresh id is minted; either way the id is echoed on the response), and
// per-route latency recording into the labeled histogram family.
func (r *Registry) instrument(route string, class shedClass, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if !r.shed.acquire(class) {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "server: overloaded, request shed"})
			return
		}
		defer r.shed.release()
		id := trace.Sanitize(req.Header.Get(trace.Header))
		if id == "" {
			id = r.cfg.TraceSource.NewID()
		}
		w.Header().Set(trace.Header, id)
		req = req.WithContext(trace.With(req.Context(), id))
		// Per-request events are Debug: the flight ring keeps them, the
		// stream stays quiet at the Info default so the pull path is cheap.
		r.cfg.Log.Debug(req.Context(), "server", "http.request",
			trace.F("route", route), trace.F("method", req.Method))
		start := r.cfg.Clock()
		h(w, req)
		if hist := r.routeHist[route]; hist != nil {
			hist.Record(r.cfg.Clock().Sub(start).Seconds())
		}
	}
}

// APIHandler builds the authenticated API router. The handler carries no
// state of its own; everything lives in the registry.
func (r *Registry) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/functions", r.instrument("register", classControl, r.withTenant(r.handleRegister)))
	mux.HandleFunc("GET /api/v1/functions", r.instrument("list", classPull, r.withTenant(r.handleList)))
	mux.HandleFunc("GET /api/v1/functions/{fn}", r.instrument("status", classPull, r.withTenant(r.handleStatus)))
	mux.HandleFunc("GET /api/v1/functions/{fn}/deployment", r.instrument("deployment", classPull, r.withTenant(r.handleDeployment)))
	mux.HandleFunc("GET /api/v1/functions/{fn}/model", r.instrument("pull", classPull, r.withTenant(r.handlePull)))
	mux.HandleFunc("PUT /api/v1/functions/{fn}/model", r.instrument("push", classControl, r.withTenant(r.handlePush)))
	mux.HandleFunc("POST /api/v1/functions/{fn}/observations", r.instrument("observations", classObservation, r.withTenant(r.handleObservations)))
	mux.HandleFunc("POST /api/v1/functions/{fn}/tune", r.instrument("tune", classControl, r.withTenant(r.handleTune)))
	mux.HandleFunc("POST /api/v1/functions/{fn}/canary/report", r.instrument("report", classControl, r.withTenant(r.handleCanaryReport)))
	mux.HandleFunc("GET /api/v1/jobs/{id}", r.instrument("job", classControl, r.withTenant(r.handleJob)))
	return mux
}

// withTenant authenticates the bearer token and passes the tenant name on.
func (r *Registry) withTenant(h func(http.ResponseWriter, *http.Request, string)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		r.metrics.requests.Add(1)
		auth := req.Header.Get("Authorization")
		token, ok := strings.CutPrefix(auth, "Bearer ")
		if !ok || token == "" {
			r.metrics.authFailures.Add(1)
			writeErr(w, fmt.Errorf("%w: missing bearer token", ErrUnauthorized))
			return
		}
		tenant, err := r.Authenticate(token)
		if err != nil {
			r.metrics.authFailures.Add(1)
			writeErr(w, err)
			return
		}
		r.mu.Lock()
		if ts := r.tenants[tenant]; ts != nil {
			ts.tm.requests.Add(1)
		}
		r.mu.Unlock()
		h(w, req, tenant)
	}
}

func (r *Registry) handleRegister(w http.ResponseWriter, req *http.Request, tenant string) {
	var spec FunctionSpec
	if err := decodeBody(req, &spec); err != nil {
		writeErr(w, err)
		return
	}
	if err := r.RegisterFunction(req.Context(), tenant, spec); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, spec)
}

func (r *Registry) handleList(w http.ResponseWriter, req *http.Request, tenant string) {
	names, err := r.Functions(tenant)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]string{"functions": names})
}

func (r *Registry) handleStatus(w http.ResponseWriter, req *http.Request, tenant string) {
	st, err := r.Status(tenant, req.PathValue("fn"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (r *Registry) handleDeployment(w http.ResponseWriter, req *http.Request, tenant string) {
	dep, err := r.Deployment(tenant, req.PathValue("fn"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, dep)
}

// handlePull serves a model artifact. ?version=N pins a version (the poller
// pulls canary challengers this way); the default is the stable version.
// If-None-Match with the current ETag short-circuits to 304.
func (r *Registry) handlePull(w http.ResponseWriter, req *http.Request, tenant string) {
	version := 0
	if q := req.URL.Query().Get("version"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeErr(w, fmt.Errorf("%w: bad version %q", ErrInvalid, q))
			return
		}
		version = v
	}
	data, etag, v, err := r.Artifact(tenant, req.PathValue("fn"), version)
	if err != nil {
		writeErr(w, err)
		return
	}
	// Both outcomes carry the validator pair: a 304 must let the poller
	// confirm which version its cached artifact corresponds to without a
	// body, exactly as a 200 does.
	for _, cand := range strings.Split(req.Header.Get("If-None-Match"), ",") {
		if strings.TrimSpace(cand) == etag {
			r.metrics.pullsNotModified.Add(1)
			w.Header().Set("ETag", etag)
			w.Header().Set("X-Nitro-Model-Version", strconv.Itoa(v))
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Nitro-Model-Version", strconv.Itoa(v))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(data)
}

func (r *Registry) handlePush(w http.ResponseWriter, req *http.Request, tenant string) {
	data, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes))
	if err != nil {
		writeErr(w, fmt.Errorf("%w: %v", ErrInvalid, err))
		return
	}
	dep, err := r.PushModel(req.Context(), tenant, req.PathValue("fn"), data, req.Header.Get("If-Match"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, dep)
}

// observationsBody is the JSON push payload: a batch of remote samples.
type observationsBody struct {
	Samples []online.RemoteSample `json:"samples"`
}

// decodeObservations reads one pushed batch: a binary sample frame when the
// request's media type is SampleFrameType, the strict JSON body for
// anything else (older clients, curl). Both forms reject an empty batch.
func decodeObservations(req *http.Request) ([]online.RemoteSample, error) {
	if mt, _, err := mime.ParseMediaType(req.Header.Get("Content-Type")); err == nil && mt == SampleFrameType {
		data, err := io.ReadAll(io.LimitReader(req.Body, maxBodyBytes+1))
		if err == nil && len(data) > maxBodyBytes {
			err = fmt.Errorf("frame over %d bytes", maxBodyBytes)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalid, err)
		}
		return DecodeSampleFrame(data)
	}
	var body observationsBody
	if err := decodeBody(req, &body); err != nil {
		return nil, err
	}
	if len(body.Samples) == 0 {
		return nil, errEmptyBatch
	}
	return body.Samples, nil
}

func (r *Registry) handleObservations(w http.ResponseWriter, req *http.Request, tenant string) {
	samples, err := decodeObservations(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	stats, err := r.PushObservations(req.Context(), tenant, req.PathValue("fn"), samples)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"drift": stats})
}

func (r *Registry) handleTune(w http.ResponseWriter, req *http.Request, tenant string) {
	id, err := r.Tune(req.Context(), tenant, req.PathValue("fn"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"job": id})
}

func (r *Registry) handleJob(w http.ResponseWriter, req *http.Request, tenant string) {
	st, err := r.Job(tenant, req.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// canaryReportBody carries one client's challenger outcomes: the
// reporter's cumulative totals for the episode (idempotent under retries).
// A body without a reporter is rejected with 400.
type canaryReportBody struct {
	Version  int    `json:"version"`
	Reporter string `json:"reporter,omitempty"`
	Calls    int64  `json:"calls"`
	Failures int64  `json:"failures"`
}

func (r *Registry) handleCanaryReport(w http.ResponseWriter, req *http.Request, tenant string) {
	var body canaryReportBody
	if err := decodeBody(req, &body); err != nil {
		writeErr(w, err)
		return
	}
	decision, dep, err := r.ReportCanary(req.Context(), tenant, req.PathValue("fn"), body.Version, body.Reporter, body.Calls, body.Failures)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"decision": decision, "deployment": dep})
}
