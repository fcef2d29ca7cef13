package server

// Route-level tests for the observability plane: the version/validator
// headers on both pull outcomes, trace-id echo and hostile-header
// sanitization, and the labeled metrics surface (per-tenant counters,
// per-route histograms, recovery gauges) staying inside the exposition
// lint.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"nitro/internal/obs"
	"nitro/internal/obs/trace"
)

// TestPullVersionHeaderOn200And304: both pull outcomes must carry the
// validator pair — a 304 that omitted X-Nitro-Model-Version would leave
// the poller unable to confirm which version its cache corresponds to.
func TestPullVersionHeaderOn200And304(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5), nil), http.StatusCreated)

	full := req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil)
	etag := full.Header.Get("ETag")
	if full.StatusCode != http.StatusOK || etag == "" || full.Header.Get("X-Nitro-Model-Version") != "1" {
		t.Fatalf("200 pull: status=%d etag=%q version=%q", full.StatusCode, etag, full.Header.Get("X-Nitro-Model-Version"))
	}
	bodyOf(t, full)

	cached := req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil,
		map[string]string{"If-None-Match": etag})
	bodyOf(t, cached)
	if cached.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation status %d, want 304", cached.StatusCode)
	}
	if got := cached.Header.Get("X-Nitro-Model-Version"); got != "1" {
		t.Fatalf("304 X-Nitro-Model-Version = %q, want \"1\"", got)
	}
	if got := cached.Header.Get("ETag"); got != etag {
		t.Fatalf("304 ETag = %q, want %q", got, etag)
	}
}

// TestTraceHeaderEchoAndSanitize: a well-formed inbound trace id is
// echoed; a hostile one (injection bytes) is replaced with a freshly
// minted id; an absent one is minted. The response always carries the id
// the request ran under.
func TestTraceHeaderEchoAndSanitize(t *testing.T) {
	_, hs := newTestDaemon(t, nil)

	good := req(t, hs, "GET", "/api/v1/functions", "tok-acme", nil,
		map[string]string{trace.Header: "my-trace_01.a"})
	bodyOf(t, good)
	if got := good.Header.Get(trace.Header); got != "my-trace_01.a" {
		t.Fatalf("well-formed trace id not echoed: %q", got)
	}

	hostile := req(t, hs, "GET", "/api/v1/functions", "tok-acme", nil,
		map[string]string{trace.Header: "evil{injection}"})
	bodyOf(t, hostile)
	got := hostile.Header.Get(trace.Header)
	if got == "" || got == "evil{injection}" || trace.Sanitize(got) == "" {
		t.Fatalf("hostile trace id handling: got %q, want a freshly minted clean id", got)
	}

	absent := req(t, hs, "GET", "/api/v1/functions", "tok-acme", nil, nil)
	bodyOf(t, absent)
	if got := absent.Header.Get(trace.Header); got == "" || trace.Sanitize(got) == "" {
		t.Fatalf("no minted trace id on bare request: %q", got)
	}
}

// TestLabeledMetricsSurface: after real traffic the scrape must pass the
// full exposition lint and carry the per-tenant counters, the per-route
// latency histograms and the recovery gauges.
func TestLabeledMetricsSurface(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)
	mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/sort/model", "tok-acme", boundaryArtifact(t, 4.5), nil), http.StatusCreated)
	bodyOf(t, req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil))
	bodyOf(t, req(t, hs, "GET", "/api/v1/functions", "tok-globex", nil, nil))

	text := string(mustStatus(t, req(t, hs, "GET", "/metrics", "", nil, nil), http.StatusOK))
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("scrape fails exposition lint: %v", err)
	}
	for _, want := range []string{
		`nitro_server_tenant_requests_total{tenant="acme"}`,
		`nitro_server_tenant_requests_total{tenant="globex"}`,
		`nitro_server_tenant_artifact_pulls_total{tenant="acme"} 1`,
		`nitro_server_http_request_seconds_bucket{route="pull",le="+Inf"} 1`,
		`nitro_server_http_request_seconds_bucket{route="push",le="+Inf"} 1`,
		"nitro_server_recovery_clean_shutdown",
		"nitro_server_recovery_resumed_canaries",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %s", want)
		}
	}

	// The recovery report is also a /vars JSON block.
	vars := mustStatus(t, req(t, hs, "GET", "/vars", "", nil, nil), http.StatusOK)
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(vars, &doc); err != nil {
		t.Fatalf("/vars unparsable: %v", err)
	}
	raw, ok := doc["recovery"]
	if !ok {
		t.Fatalf("/vars missing recovery block: %s", vars)
	}
	var rep RecoveryReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("recovery block unparsable: %v", err)
	}
	if rep.Journal {
		t.Fatalf("in-memory daemon reports an active journal: %+v", rep)
	}
}

// TestFlightEndpoint: /debug/flight serves the ring as wall-clock-free
// JSON and scraping it twice returns identical bytes — forensics must not
// perturb the evidence.
func TestFlightEndpoint(t *testing.T) {
	_, hs := newTestDaemon(t, nil)
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, testSpec()), nil), http.StatusCreated)

	first := mustStatus(t, req(t, hs, "GET", "/debug/flight", "", nil, nil), http.StatusOK)
	second := mustStatus(t, req(t, hs, "GET", "/debug/flight", "", nil, nil), http.StatusOK)
	if string(first) != string(second) {
		t.Fatalf("flight dump not idempotent:\n%s\nvs\n%s", first, second)
	}
	var dump struct {
		Recorded uint64 `json:"recorded"`
		Events   []struct {
			Seq  uint64 `json:"seq"`
			Name string `json:"event"`
		} `json:"events"`
	}
	if err := json.Unmarshal(first, &dump); err != nil {
		t.Fatalf("flight dump unparsable: %v\n%s", err, first)
	}
	if dump.Recorded == 0 {
		t.Fatalf("flight ring empty after traffic: %s", first)
	}
	if strings.Contains(string(first), `"time"`) {
		t.Fatalf("flight dump carries wall-clock: %s", first)
	}
	found := false
	for _, e := range dump.Events {
		if e.Seq == 0 {
			t.Fatalf("flight event without a seq: %s", first)
		}
		if e.Name == "function.register" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight ring missing the register transition: %s", first)
	}
}

// TestPprofOptIn: the profiling surface is absent by default and mounted
// only when ObsConfig.Profiling is set.
func TestPprofOptIn(t *testing.T) {
	_, plain := newTestDaemon(t, nil)
	resp := req(t, plain, "GET", "/debug/pprof/", "", nil, nil)
	bodyOf(t, resp)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof surface mounted without opt-in")
	}

	_, profiled := newTestDaemon(t, func(cfg *Config) { cfg.Obs.Profiling = true })
	resp = req(t, profiled, "GET", "/debug/pprof/", "", nil, nil)
	bodyOf(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d with profiling on, want 200", resp.StatusCode)
	}
	text := string(mustStatus(t, req(t, profiled, "GET", "/metrics", "", nil, nil), http.StatusOK))
	if !strings.Contains(text, "nitro_runtime_goroutines") {
		t.Fatal("runtime series missing with profiling on")
	}
	if err := obs.ValidatePrometheusText(text); err != nil {
		t.Fatalf("profiled scrape fails lint: %v", err)
	}
}
