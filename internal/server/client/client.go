// Package client talks to a nitro-server model registry: registering
// function specs, pulling versioned model artifacts (ETag-cached), pushing
// observation samples, and driving the canary handshake. The Poller turns
// the registry's deployment state into local hot-swaps on a core.Context.
package client

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/ml"
	"nitro/internal/obs/trace"
	"nitro/internal/online"
	"nitro/internal/server"
)

// Config configures a registry client.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:9090".
	BaseURL string
	// Token is the tenant bearer token.
	Token string
	// HTTPClient overrides the transport (default: http.Client with a 10s
	// timeout).
	HTTPClient *http.Client
	// Retries is how many times a failed request is retried (default 2;
	// negative disables). Transport errors, 5xx and 429 retry; other
	// statuses are returned immediately.
	Retries int
	// Backoff scales the retry delay: attempt k sleeps a full-jittered
	// uniform draw from [0, min(MaxBackoff, Backoff<<k)] (default 100ms).
	// A Retry-After header on a 429/503 overrides the schedule — the
	// server's hint is honored (plus up to 25% jitter so a restarted server
	// is not re-synchronized into a thundering herd).
	Backoff time.Duration
	// MaxBackoff caps a single retry delay (default 2s).
	MaxBackoff time.Duration
	// AttemptBudget bounds the total wall-clock spent on one logical call,
	// attempts plus sleeps; a retry whose delay would overrun the budget is
	// abandoned and the last failure returned (0: no budget).
	AttemptBudget time.Duration
	// BreakerThreshold is the number of consecutive failed exchanges
	// (transport errors, 5xx, 429) that open the client's circuit breaker;
	// while open, calls fail fast with ErrCircuitOpen instead of hammering
	// a struggling server. After BreakerCooldown one half-open probe
	// request is admitted; its outcome closes or re-opens the circuit.
	// Default 8; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open circuit rejects without trying
	// the network (default 1s).
	BreakerCooldown time.Duration
	// Seed seeds the jitter RNG; 0 derives a stream from the token so
	// distinct clients jitter independently. Fix it for replayable tests.
	Seed int64
	// Log, when non-nil, receives structured client-side events (poll
	// transitions, breaker open/close) stamped with the active trace id.
	Log *trace.Log
	// TraceSource mints per-poll trace ids (default: seeded from Seed when
	// set, crypto/rand otherwise). A caller-supplied context id wins.
	TraceSource *trace.Source
	// sleep / now are injectable for tests (fake clock).
	sleep func(time.Duration)
	now   func() time.Time
}

// Client is a registry API client. Safe for concurrent use.
type Client struct {
	cfg     Config
	breaker *circuit

	mu  sync.Mutex
	rng *rand.Rand
}

// New validates the config and returns a client.
func New(cfg Config) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("client: empty base URL")
	}
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.Token == "" {
		return nil, fmt.Errorf("client: empty token")
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	} else if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 8
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.sleep == nil {
		cfg.sleep = time.Sleep
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	seed := uint64(cfg.Seed)
	if seed == 0 {
		// Derive a per-client stream (FNV-1a over the token) so a fleet of
		// zero-config clients never shares one jitter sequence.
		seed = 0xcbf29ce484222325
		for i := 0; i < len(cfg.Token); i++ {
			seed = (seed ^ uint64(cfg.Token[i])) * 0x100000001b3
		}
	}
	if cfg.TraceSource == nil {
		if cfg.Seed != 0 {
			cfg.TraceSource = trace.NewSeededSource(cfg.Seed)
		} else {
			cfg.TraceSource = trace.NewSource()
		}
	}
	return &Client{
		cfg: cfg,
		breaker: &circuit{threshold: cfg.BreakerThreshold, cooldown: cfg.BreakerCooldown,
			now: cfg.now, log: cfg.Log},
		rng: rand.New(rand.NewPCG(seed, 0x6a697474)), // "jitt"
	}, nil
}

// randFloat draws one uniform jitter value from the client's seeded stream.
func (c *Client) randFloat() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// newReporterID mints a reporter identity for a Poller. With an explicit
// Seed the ID comes from the client's seeded stream (replayable tests);
// zero-config clients draw from crypto/rand, because fleet members share
// a token and the token-derived stream would hand every process the same
// IDs — colliding reporters would clobber each other's dedup baselines.
func (c *Client) newReporterID() string {
	if c.cfg.Seed == 0 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			return fmt.Sprintf("r-%x", b)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("r-%016x", c.rng.Uint64())
}

// ErrCircuitOpen fails calls fast while the client's circuit breaker is
// open: the recent exchanges all failed and the cooldown has not elapsed.
// Callers serving live traffic (the Poller) treat it like any transient
// error — keep the installed incumbent and try again next cycle.
var ErrCircuitOpen = errors.New("client: circuit breaker open")

// circuit is a consecutive-failure circuit breaker with a single half-open
// probe, mirroring the per-variant quarantine breaker in internal/core at
// the protocol layer.
type circuit struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time
	log       *trace.Log // nil-safe; open/close transitions only

	mu        sync.Mutex
	failures  int
	openUntil time.Time
	probing   bool
}

// disabled reports whether breaking is turned off by configuration.
func (b *circuit) disabled() bool { return b.threshold < 0 }

// allow admits or rejects one exchange. probe is true when this caller
// holds the single half-open probe and must report its outcome.
func (b *circuit) allow() (probe bool, err error) {
	if b.disabled() {
		return false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.IsZero() {
		return false, nil
	}
	if now := b.now(); now.Before(b.openUntil) {
		return false, fmt.Errorf("%w (retry after %s)", ErrCircuitOpen, b.openUntil.Sub(now).Round(time.Millisecond))
	}
	// Cooldown elapsed: half-open. Admit exactly one probe; concurrent
	// callers keep failing fast until the probe reports.
	if b.probing {
		return false, fmt.Errorf("%w (half-open probe in flight)", ErrCircuitOpen)
	}
	b.probing = true
	return true, nil
}

// success reports a completed exchange (any HTTP response, including 4xx —
// the server is reachable and responsive).
func (b *circuit) success() {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	wasOpen := !b.openUntil.IsZero()
	b.failures = 0
	b.openUntil = time.Time{}
	b.probing = false
	b.mu.Unlock()
	if wasOpen {
		b.log.Event(nil, "client", "breaker.close")
	}
}

// abort releases the half-open probe slot for an exchange that never
// reached the wire (request construction failed). The breaker learned
// nothing about the server, so its state is otherwise unchanged — without
// this the probe slot would stay occupied forever and every future call
// would fail fast with "probe in flight".
func (b *circuit) abort(probe bool) {
	if !probe || b.disabled() {
		return
	}
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// failure reports a failed exchange; at threshold the circuit opens. A
// failed half-open probe re-opens immediately.
func (b *circuit) failure(probe bool) {
	if b.disabled() {
		return
	}
	b.mu.Lock()
	wasOpen := !b.openUntil.IsZero()
	b.failures++
	tripped := probe || b.failures >= b.threshold
	if tripped {
		b.openUntil = b.now().Add(b.cooldown)
		b.probing = false
	}
	failures := b.failures
	b.mu.Unlock()
	if tripped && !wasOpen {
		b.log.Error(nil, "client", "breaker.open",
			trace.F("consecutive_failures", fmt.Sprint(failures)))
	}
}

// State reports the breaker's current admission state for observability:
// "closed", "open", or "half-open".
func (c *Client) BreakerState() string {
	b := c.breaker
	if b.disabled() {
		return "closed"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.openUntil.IsZero():
		return "closed"
	case b.now().Before(b.openUntil):
		return "open"
	default:
		return "half-open"
	}
}

// apiResponse is one completed exchange.
type apiResponse struct {
	status int
	header http.Header
	body   []byte
}

func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// do runs one request with retry/backoff through the circuit breaker.
// Bodies are replayed from the byte slice, so every attempt sends the full
// payload. Retry delays are fully jittered; a Retry-After hint on a
// 429/503 overrides the exponential schedule; the attempt budget (when
// configured) bounds total time spent including sleeps.
func (c *Client) do(ctx context.Context, method, path string, headers map[string]string, body []byte) (apiResponse, error) {
	start := c.cfg.now()
	var lastErr error
	for attempt := 0; ; attempt++ {
		probe, err := c.breaker.allow()
		if err != nil {
			if lastErr != nil {
				return apiResponse{}, fmt.Errorf("%w; last failure: %v", err, lastErr)
			}
			return apiResponse{}, err
		}
		var retryAfter time.Duration
		req, err := http.NewRequestWithContext(ctx, method, c.cfg.BaseURL+path, bytes.NewReader(body))
		if err != nil {
			c.breaker.abort(probe)
			return apiResponse{}, err
		}
		req.Header.Set("Authorization", "Bearer "+c.cfg.Token)
		if id := trace.From(ctx); id != "" {
			req.Header.Set(trace.Header, id)
		}
		for k, v := range headers {
			req.Header.Set(k, v)
		}
		resp, err := c.cfg.HTTPClient.Do(req)
		if err == nil {
			data, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && !retryableStatus(resp.StatusCode) {
				c.breaker.success()
				return apiResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
			}
			c.breaker.failure(probe)
			if rerr != nil {
				lastErr = fmt.Errorf("client: %s %s: reading response: %w", method, path, rerr)
			} else {
				lastErr = fmt.Errorf("client: %s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
				retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), c.cfg.now())
				if attempt >= c.cfg.Retries {
					return apiResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
				}
			}
		} else {
			c.breaker.failure(probe)
			lastErr = err
		}
		if attempt >= c.cfg.Retries || ctx.Err() != nil {
			return apiResponse{}, lastErr
		}
		delay := c.backoffDelay(attempt, retryAfter)
		if budget := c.cfg.AttemptBudget; budget > 0 && c.cfg.now().Sub(start)+delay > budget {
			return apiResponse{}, fmt.Errorf("client: attempt budget %v exhausted after %d attempts: %w",
				budget, attempt+1, lastErr)
		}
		c.cfg.sleep(delay)
	}
}

// backoffDelay computes the sleep before retry number attempt+1. With a
// Retry-After hint the server's figure is honored plus up to 25% jitter;
// otherwise full jitter over an exponentially growing, capped ceiling —
// uniform in [0, min(MaxBackoff, Backoff<<attempt)] — so a fleet of
// clients re-syncing after a server restart spreads out instead of
// thundering back in lockstep.
func (c *Client) backoffDelay(attempt int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter + time.Duration(c.randFloat()*0.25*float64(retryAfter))
	}
	ceil := c.cfg.MaxBackoff
	if shifted := c.cfg.Backoff << attempt; shifted > 0 && shifted < ceil {
		ceil = shifted
	}
	return time.Duration(c.randFloat() * float64(ceil))
}

// parseRetryAfter reads a Retry-After header: either delta-seconds or an
// HTTP-date. Unparseable or non-positive values mean "no hint".
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// decodeOrErr maps non-2xx responses to errors carrying the server's
// message, and decodes 2xx bodies into out (when non-nil).
func decodeOrErr(resp apiResponse, path string, out any) error {
	if resp.status < 200 || resp.status >= 300 {
		var ae struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(resp.body))
		if json.Unmarshal(resp.body, &ae) == nil && ae.Error != "" {
			msg = ae.Error
		}
		return &APIError{Status: resp.status, Path: path, Message: msg}
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(resp.body, out); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// APIError is a non-2xx registry response.
type APIError struct {
	Status  int
	Path    string
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("client: %s: status %d: %s", e.Path, e.Status, e.Message)
}

// IsStatus reports whether err is an APIError with the given status.
func IsStatus(err error, status int) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == status
}

// RegisterFunction registers (idempotently) a function spec.
func (c *Client) RegisterFunction(ctx context.Context, spec server.FunctionSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	resp, err := c.do(ctx, http.MethodPost, "/api/v1/functions", jsonHeaders, body)
	if err != nil {
		return err
	}
	return decodeOrErr(resp, "/api/v1/functions", nil)
}

var (
	jsonHeaders  = map[string]string{"Content-Type": "application/json"}
	frameHeaders = map[string]string{"Content-Type": server.SampleFrameType}
)

// Status fetches a function's full observable state (spec, deployment,
// drift, corpus size).
func (c *Client) Status(ctx context.Context, fn string) (server.FunctionStatus, error) {
	path := "/api/v1/functions/" + fn
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return server.FunctionStatus{}, err
	}
	var st server.FunctionStatus
	if err := decodeOrErr(resp, path, &st); err != nil {
		return server.FunctionStatus{}, err
	}
	return st, nil
}

// Deployment fetches the stable/canary deployment state of a function.
func (c *Client) Deployment(ctx context.Context, fn string) (server.Deployment, error) {
	path := "/api/v1/functions/" + fn + "/deployment"
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return server.Deployment{}, err
	}
	var dep server.Deployment
	if err := decodeOrErr(resp, path, &dep); err != nil {
		return server.Deployment{}, err
	}
	return dep, nil
}

// Pull is one model-pull result.
type Pull struct {
	// NotModified reports a 304: the caller's cached artifact is current.
	NotModified bool
	Version     int
	ETag        string
	Data        []byte
	Model       *ml.Model
}

// PullModel fetches a model artifact. version 0 selects the server's stable
// version; cachedETag, when non-empty, is sent as If-None-Match so an
// unchanged artifact costs a 304 instead of a body. The artifact bytes are
// verified against the response ETag before decoding.
func (c *Client) PullModel(ctx context.Context, fn string, version int, cachedETag string) (Pull, error) {
	path := "/api/v1/functions/" + fn + "/model"
	if version > 0 {
		path += "?version=" + strconv.Itoa(version)
	}
	headers := map[string]string{}
	if cachedETag != "" {
		headers["If-None-Match"] = cachedETag
	}
	resp, err := c.do(ctx, http.MethodGet, path, headers, nil)
	if err != nil {
		return Pull{}, err
	}
	if resp.status == http.StatusNotModified {
		return Pull{NotModified: true, ETag: cachedETag, Version: atoi(resp.header.Get("X-Nitro-Model-Version"))}, nil
	}
	if err := decodeOrErr(resp, path, nil); err != nil {
		return Pull{}, err
	}
	etag := resp.header.Get("ETag")
	m, err := ml.DecodeArtifact(resp.body, etag)
	if err != nil {
		return Pull{}, fmt.Errorf("client: pulled artifact for %q is corrupt: %w", fn, err)
	}
	return Pull{Version: atoi(resp.header.Get("X-Nitro-Model-Version")), ETag: etag, Data: resp.body, Model: m}, nil
}

func atoi(s string) int {
	v, _ := strconv.Atoi(s)
	return v
}

// PushModel uploads an externally trained artifact. ifMatch carries the
// If-Match precondition ("" = unconditional).
func (c *Client) PushModel(ctx context.Context, fn string, data []byte, ifMatch string) (server.Deployment, error) {
	path := "/api/v1/functions/" + fn + "/model"
	headers := map[string]string{"Content-Type": "application/octet-stream"}
	if ifMatch != "" {
		headers["If-Match"] = ifMatch
	}
	resp, err := c.do(ctx, http.MethodPut, path, headers, data)
	if err != nil {
		return server.Deployment{}, err
	}
	var dep server.Deployment
	if err := decodeOrErr(resp, path, &dep); err != nil {
		return server.Deployment{}, err
	}
	return dep, nil
}

// PushObservations ships a batch of labelled samples to the fleet detector
// as one binary sample frame and returns the server's drift stats. A NaN
// or ±Inf value fails before any request, naming the sample. Registries
// older than the frame answer it with 400, so upgrade daemons first.
func (c *Client) PushObservations(ctx context.Context, fn string, samples []online.RemoteSample) (online.FleetStats, error) {
	path := "/api/v1/functions/" + fn + "/observations"
	body, err := server.AppendSampleFrame(nil, samples)
	if err != nil {
		return online.FleetStats{}, fmt.Errorf("client: push %s observations: %w", fn, err)
	}
	resp, err := c.do(ctx, http.MethodPost, path, frameHeaders, body)
	if err != nil {
		return online.FleetStats{}, err
	}
	var out struct {
		Drift online.FleetStats `json:"drift"`
	}
	if err := decodeOrErr(resp, path, &out); err != nil {
		return online.FleetStats{}, err
	}
	return out.Drift, nil
}

// Tune requests a tuning job over the server's observation corpus.
func (c *Client) Tune(ctx context.Context, fn string) (string, error) {
	path := "/api/v1/functions/" + fn + "/tune"
	resp, err := c.do(ctx, http.MethodPost, path, nil, nil)
	if err != nil {
		return "", err
	}
	var out struct {
		Job string `json:"job"`
	}
	if err := decodeOrErr(resp, path, &out); err != nil {
		return "", err
	}
	return out.Job, nil
}

// Job fetches a tune job's status.
func (c *Client) Job(ctx context.Context, id string) (autotuner.JobStatus, error) {
	path := "/api/v1/jobs/" + id
	resp, err := c.do(ctx, http.MethodGet, path, nil, nil)
	if err != nil {
		return autotuner.JobStatus{}, err
	}
	var st autotuner.JobStatus
	if err := decodeOrErr(resp, path, &st); err != nil {
		return autotuner.JobStatus{}, err
	}
	return st, nil
}

// ReportCanary reports the reporter's *cumulative* challenger totals for
// the episode under a stable reporter identity and returns the server's
// decision plus the (possibly updated) deployment. The server folds in only
// the movement past the reporter's last accepted totals, so a report
// replayed by the retry layer (applied once, response lost, body re-sent)
// is a no-op instead of a double count. The reporter must be non-empty.
func (c *Client) ReportCanary(ctx context.Context, fn string, version int, reporter string, calls, failures int64) (string, server.Deployment, error) {
	path := "/api/v1/functions/" + fn + "/canary/report"
	body, err := json.Marshal(struct {
		Version  int    `json:"version"`
		Reporter string `json:"reporter,omitempty"`
		Calls    int64  `json:"calls"`
		Failures int64  `json:"failures"`
	}{version, reporter, calls, failures})
	if err != nil {
		return "", server.Deployment{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, path, jsonHeaders, body)
	if err != nil {
		return "", server.Deployment{}, err
	}
	var out struct {
		Decision   string            `json:"decision"`
		Deployment server.Deployment `json:"deployment"`
	}
	if err := decodeOrErr(resp, path, &out); err != nil {
		return "", server.Deployment{}, err
	}
	return out.Decision, out.Deployment, nil
}
