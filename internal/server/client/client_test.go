package client

import (
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nitro/internal/online"
	"nitro/internal/server"
)

func testClient(t *testing.T, url string, sleeps *[]time.Duration) *Client {
	t.Helper()
	c, err := New(Config{
		BaseURL: url,
		Token:   "tok",
		Retries: 2,
		Backoff: 10 * time.Millisecond,
		Seed:    1,
		sleep: func(d time.Duration) {
			if sleeps != nil {
				*sleeps = append(*sleeps, d)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRetryBackoff: transient 5xx responses retry with full-jittered
// exponential backoff and eventually succeed; each sleep stays inside its
// attempt's jitter ceiling.
func TestRetryBackoff(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Authorization") != "Bearer tok" {
			t.Errorf("missing bearer token on attempt %d", attempts.Load())
		}
		if attempts.Add(1) <= 2 {
			http.Error(w, "temporarily down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"function":"f","stable":1,"latest":1,"last_decision":"promoted"}`))
	}))
	defer hs.Close()

	var sleeps []time.Duration
	c := testClient(t, hs.URL, &sleeps)
	dep, err := c.Deployment(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	if dep.Stable != 1 || attempts.Load() != 3 {
		t.Fatalf("deployment %+v after %d attempts, want success on the 3rd", dep, attempts.Load())
	}
	if len(sleeps) != 2 {
		t.Fatalf("slept %d times, want 2", len(sleeps))
	}
	for i, ceil := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
		if sleeps[i] < 0 || sleeps[i] >= ceil {
			t.Fatalf("sleep %d = %v, want full jitter in [0, %v)", i, sleeps[i], ceil)
		}
	}
}

// TestBackoffDelayTable drives the delay computation directly: jitter
// bounds, the MaxBackoff cap, and Retry-After hints overriding the
// exponential schedule (with bounded added jitter).
func TestBackoffDelayTable(t *testing.T) {
	cases := []struct {
		name       string
		backoff    time.Duration
		maxBackoff time.Duration
		attempt    int
		retryAfter time.Duration
		lo, hi     time.Duration // inclusive lower bound, exclusive upper
	}{
		{"first attempt jitters under base", 100 * time.Millisecond, 2 * time.Second, 0, 0,
			0, 100 * time.Millisecond},
		{"third attempt jitters under base<<2", 100 * time.Millisecond, 2 * time.Second, 2, 0,
			0, 400 * time.Millisecond},
		{"ceiling capped at MaxBackoff", 100 * time.Millisecond, 250 * time.Millisecond, 10, 0,
			0, 250 * time.Millisecond},
		{"retry-after honored plus <=25% jitter", 100 * time.Millisecond, 250 * time.Millisecond, 0, 2 * time.Second,
			2 * time.Second, 2*time.Second + 500*time.Millisecond},
		{"retry-after wins over tiny schedule", time.Millisecond, time.Second, 0, 4 * time.Second,
			4 * time.Second, 5 * time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := New(Config{BaseURL: "http://x", Token: "tok",
				Backoff: tc.backoff, MaxBackoff: tc.maxBackoff, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			// Many draws: every one must respect the bounds.
			for i := 0; i < 200; i++ {
				d := c.backoffDelay(tc.attempt, tc.retryAfter)
				if d < tc.lo || d >= tc.hi {
					t.Fatalf("draw %d: delay %v outside [%v, %v)", i, d, tc.lo, tc.hi)
				}
			}
		})
	}
}

// TestParseRetryAfter covers both header forms against a fixed clock.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		header string
		want   time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 10 ", 10 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"garbage", 0},
		{now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // date in the past
	}
	for _, tc := range cases {
		if got := parseRetryAfter(tc.header, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestRetryAfterDrivesSleep: a 429 carrying Retry-After overrides the
// exponential schedule — the observed sleep is the server's hint plus at
// most 25% jitter, not the sub-millisecond backoff the schedule would give.
func TestRetryAfterDrivesSleep(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "slow down", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`{"function":"f","stable":1,"latest":1,"last_decision":"promoted"}`))
	}))
	defer hs.Close()

	var sleeps []time.Duration
	c, err := New(Config{BaseURL: hs.URL, Token: "tok", Retries: 1,
		Backoff: time.Microsecond, Seed: 1,
		sleep: func(d time.Duration) { sleeps = append(sleeps, d) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deployment(context.Background(), "f"); err != nil {
		t.Fatal(err)
	}
	if len(sleeps) != 1 || sleeps[0] < 2*time.Second || sleeps[0] > 2500*time.Millisecond {
		t.Fatalf("sleeps = %v, want one sleep in [2s, 2.5s] from Retry-After", sleeps)
	}
}

// TestAttemptBudget: a fake clock advanced by the sleep hook exhausts the
// total-attempt budget — the client abandons the retry loop with a typed
// message instead of sleeping past it.
func TestAttemptBudget(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "still down", http.StatusServiceUnavailable)
	}))
	defer hs.Close()

	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	c, err := New(Config{BaseURL: hs.URL, Token: "tok",
		Retries: 10, Backoff: 40 * time.Millisecond, MaxBackoff: 40 * time.Millisecond,
		AttemptBudget: 100 * time.Millisecond, Seed: 1, BreakerThreshold: -1,
		now:   func() time.Time { return clock },
		sleep: func(d time.Duration) { clock = clock.Add(d) }})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Deployment(context.Background(), "f")
	if err == nil {
		t.Fatal("budget-bounded call against a dead server succeeded")
	}
	if got := attempts.Load(); got >= 11 {
		t.Fatalf("%d attempts, want the budget to cut the retry loop short", got)
	}
	if want := "attempt budget"; !strings.Contains(err.Error(), want) {
		t.Fatalf("err %q does not mention %q", err, want)
	}
}

// TestCircuitBreakerOpensAndProbes: consecutive failures open the circuit
// (calls fail fast with no network attempt); after the cooldown a single
// half-open probe is admitted, and its success closes the circuit.
func TestCircuitBreakerOpensAndProbes(t *testing.T) {
	var healthy atomic.Bool
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		w.Write([]byte(`{"function":"f","stable":1,"latest":1,"last_decision":"promoted"}`))
	}))
	defer hs.Close()

	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	c, err := New(Config{BaseURL: hs.URL, Token: "tok",
		Retries: -1, Backoff: time.Millisecond, Seed: 1,
		BreakerThreshold: 3, BreakerCooldown: time.Second,
		now:   func() time.Time { return clock },
		sleep: func(d time.Duration) { clock = clock.Add(d) }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Three failing exchanges trip the breaker.
	for i := 0; i < 3; i++ {
		if _, err := c.Deployment(ctx, "f"); err == nil {
			t.Fatalf("call %d against a failing server succeeded", i)
		}
	}
	if st := c.BreakerState(); st != "open" {
		t.Fatalf("breaker state %q after threshold failures, want open", st)
	}
	// While open: fail fast, no network attempt.
	before := attempts.Load()
	if _, err := c.Deployment(ctx, "f"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open-circuit call returned %v, want ErrCircuitOpen", err)
	}
	if attempts.Load() != before {
		t.Fatal("open circuit still hit the network")
	}

	// Cooldown elapses; the server heals; the single probe closes the circuit.
	clock = clock.Add(2 * time.Second)
	healthy.Store(true)
	if st := c.BreakerState(); st != "half-open" {
		t.Fatalf("breaker state %q after cooldown, want half-open", st)
	}
	if _, err := c.Deployment(ctx, "f"); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := c.BreakerState(); st != "closed" {
		t.Fatalf("breaker state %q after successful probe, want closed", st)
	}
}

// TestCircuitHalfOpenSingleProbe: while one probe is in flight, every
// other caller is rejected; a failed probe re-opens immediately.
func TestCircuitHalfOpenSingleProbe(t *testing.T) {
	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	b := &circuit{threshold: 1, cooldown: time.Second, now: func() time.Time { return clock }}
	b.failure(false) // trip
	if _, err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("open circuit admitted a call")
	}
	clock = clock.Add(2 * time.Second)
	probe, err := b.allow()
	if err != nil || !probe {
		t.Fatalf("first half-open caller: probe=%v err=%v, want the probe", probe, err)
	}
	if _, err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("second caller admitted while the probe is in flight")
	}
	b.failure(true) // probe fails: re-open for a full cooldown
	if _, err := b.allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatal("circuit closed after a failed probe")
	}
	clock = clock.Add(2 * time.Second)
	if probe, err := b.allow(); err != nil || !probe {
		t.Fatalf("probe not re-admitted after second cooldown: probe=%v err=%v", probe, err)
	}
	b.success()
	if probe, err := b.allow(); err != nil || probe {
		t.Fatalf("closed circuit: probe=%v err=%v, want plain admission", probe, err)
	}
}

// TestProbeAbortOnRequestBuildError: an exchange that dies before reaching
// the wire (request construction fails after allow() granted the half-open
// probe) must release the probe slot — otherwise the breaker reports
// "probe in flight" forever and can never close.
func TestProbeAbortOnRequestBuildError(t *testing.T) {
	clock := time.Date(2026, 8, 9, 12, 0, 0, 0, time.UTC)
	c, err := New(Config{BaseURL: "http://127.0.0.1:0", Token: "tok",
		Retries: -1, BreakerThreshold: 1, BreakerCooldown: time.Second, Seed: 1,
		now:   func() time.Time { return clock },
		sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	c.breaker.failure(false) // trip the breaker
	clock = clock.Add(2 * time.Second)
	// A method with a space fails http.NewRequestWithContext — after the
	// breaker already granted this call the half-open probe.
	if _, err := c.do(context.Background(), "bad method", "/x", nil, nil); err == nil {
		t.Fatal("request with a broken method succeeded")
	}
	// The probe slot must be free again for the next caller.
	probe, err := c.breaker.allow()
	if err != nil || !probe {
		t.Fatalf("after aborted probe: probe=%v err=%v, want the slot re-admitted", probe, err)
	}
}

// TestNoRetryOnClientError: 4xx responses are terminal — no retries, and the
// server's error message surfaces in the typed APIError.
func TestNoRetryOnClientError(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"server: not found: function \"f\""}`))
	}))
	defer hs.Close()

	c := testClient(t, hs.URL, nil)
	_, err := c.Deployment(context.Background(), "f")
	if err == nil || attempts.Load() != 1 {
		t.Fatalf("err = %v after %d attempts, want immediate failure", err, attempts.Load())
	}
	if !IsStatus(err, http.StatusNotFound) {
		t.Fatalf("err %v is not a 404 APIError", err)
	}
}

// TestRetriesExhausted: persistent 5xx returns the terminal status response
// after the retry budget is spent.
func TestRetriesExhausted(t *testing.T) {
	var attempts atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		http.Error(w, "still down", http.StatusInternalServerError)
	}))
	defer hs.Close()

	c := testClient(t, hs.URL, nil)
	_, err := c.Deployment(context.Background(), "f")
	if err == nil || attempts.Load() != 3 {
		t.Fatalf("err = %v after %d attempts, want failure after 1 try + 2 retries", err, attempts.Load())
	}
	if !IsStatus(err, http.StatusInternalServerError) {
		t.Fatalf("err %v is not a 500 APIError", err)
	}
}

// TestPullRejectsCorruptArtifact: a body that does not hash to the
// advertised ETag is refused before it can be installed.
func TestPullRejectsCorruptArtifact(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"sha256-deadbeef"`)
		w.Header().Set("X-Nitro-Model-Version", "1")
		w.Write([]byte("truncated garbage"))
	}))
	defer hs.Close()

	c := testClient(t, hs.URL, nil)
	if _, err := c.PullModel(context.Background(), "f", 0, ""); err == nil {
		t.Fatal("corrupt artifact pull succeeded")
	}
}

// TestConfigValidation covers constructor errors.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Token: "tok"}); err == nil {
		t.Fatal("empty base URL accepted")
	}
	if _, err := New(Config{BaseURL: "http://x"}); err == nil {
		t.Fatal("empty token accepted")
	}
}

// TestPushObservationsSendsFrame: a push travels as one binary sample
// frame under its media type and decodes to the batch; a batch holding a
// NaN or ±Inf fails before any request, naming the sample.
func TestPushObservationsSendsFrame(t *testing.T) {
	var requests atomic.Int64
	var got []online.RemoteSample
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if ct := r.Header.Get("Content-Type"); ct != server.SampleFrameType {
			t.Errorf("push sent Content-Type %q, want %q", ct, server.SampleFrameType)
		}
		data, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		if got, err = server.DecodeSampleFrame(data); err != nil {
			t.Errorf("push body is not a frame: %v", err)
		}
		w.WriteHeader(http.StatusAccepted)
		w.Write([]byte(`{"drift":{"state":"healthy","samples":2}}`))
	}))
	defer hs.Close()

	c := testClient(t, hs.URL, nil)
	batch := []online.RemoteSample{
		{Features: []float64{3, math.Copysign(0, -1)}, Times: []float64{1.5, 2}, Predicted: 1},
		{Features: []float64{5e-324, 7}, Times: []float64{math.MaxFloat64, 0.25}, Predicted: -1},
	}
	st, err := c.PushObservations(context.Background(), "f", batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "healthy" || st.Samples != 2 || requests.Load() != 1 {
		t.Fatalf("stats %+v after %d requests, want the server's healthy/2 after 1", st, requests.Load())
	}
	if !reflect.DeepEqual(got, batch) {
		t.Fatalf("server decoded %+v, want %+v", got, batch)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		poisoned := append(slices.Clone(batch), online.RemoteSample{Features: []float64{1, 2}, Times: []float64{1, bad}, Predicted: 0})
		_, err := c.PushObservations(context.Background(), "f", poisoned)
		if err == nil || !strings.Contains(err.Error(), "sample 2: time 1") {
			t.Fatalf("push with %v: err %v, want one naming sample 2's time 1", bad, err)
		}
	}
	if requests.Load() != 1 {
		t.Fatalf("non-finite batches reached the server (%d requests)", requests.Load())
	}
}
