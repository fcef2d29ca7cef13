package obs

import (
	"strings"
	"testing"
)

// TestValidatePrometheusTextLabels: the lint parses label blocks, not just
// names — per-tenant series introduced by the observability plane must be
// grammatically checkable, and hostile or mangled blocks must fail.
func TestValidatePrometheusTextLabels(t *testing.T) {
	header := "# TYPE nitro_server_tenant_requests_total counter\n"
	cases := []struct {
		name string
		line string
		ok   bool
	}{
		{"simple label", `nitro_server_tenant_requests_total{tenant="acme"} 7`, true},
		{"multiple labels", `nitro_server_tenant_requests_total{tenant="acme",route="pull"} 7`, true},
		{"empty block", `nitro_server_tenant_requests_total{} 7`, true},
		{"escaped quote", `nitro_server_tenant_requests_total{tenant="a\"b"} 1`, true},
		{"escaped backslash and newline", `nitro_server_tenant_requests_total{tenant="a\\b\n"} 1`, true},
		{"value with spaces and braces", `nitro_server_tenant_requests_total{tenant="a b{c}"} 1`, true},
		{"duplicate key", `nitro_server_tenant_requests_total{tenant="a",tenant="b"} 1`, false},
		{"illegal label name", `nitro_server_tenant_requests_total{0ten="a"} 1`, false},
		{"unquoted value", `nitro_server_tenant_requests_total{tenant=acme} 1`, false},
		{"unterminated value", `nitro_server_tenant_requests_total{tenant="acme} 1`, false},
		{"missing equals", `nitro_server_tenant_requests_total{tenant"acme"} 1`, false},
		{"unclosed block", `nitro_server_tenant_requests_total{tenant="acme" 1`, false},
		{"illegal escape", `nitro_server_tenant_requests_total{tenant="a\t"} 1`, false},
		{"trailing comma", `nitro_server_tenant_requests_total{tenant="acme",} 1`, false},
		{"missing value", `nitro_server_tenant_requests_total{tenant="acme"}`, false},
		{"unparsable value", `nitro_server_tenant_requests_total{tenant="acme"} seven`, false},
		{"inf value ok", `nitro_server_tenant_requests_total{tenant="acme"} +Inf`, true},
	}
	for _, tc := range cases {
		err := ValidatePrometheusText(header + tc.line + "\n")
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.line)
		}
	}
}

// TestLabelValuesUseExpositionEscapes: a label value is written with the
// exposition format's escapes for backslash, double quote and newline and
// every other byte as it is (a tab, a NUL, UTF-8), so the registry's own
// scrape passes its lint whatever the value holds.
func TestLabelValuesUseExpositionEscapes(t *testing.T) {
	value := "a\tb\x00c\"d\\e\nf\u00e9"
	r := NewRegistry()
	r.Register(func(emit func(Metric)) {
		emit(Counter("nitro_server_tenant_requests_total", "Requests per tenant.", 1,
			Label{Key: "tenant", Value: value}))
		emit(Metric{Name: "nitro_request_seconds", Help: "Request latency.", Kind: KindHistogram,
			Labels:  []Label{{Key: "route", Value: value}},
			Buckets: []Bucket{{LE: 0.5, Count: 1}}, Count: 1, Sum: 0.25})
	})
	text, err := r.PrometheusText()
	if err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("exposition fails its own lint: %v\n%s", err, text)
	}
	rendered := "a\tb\x00c\\\"d\\\\e\\nf\u00e9"
	for _, want := range []string{
		`nitro_server_tenant_requests_total{tenant="` + rendered + `"} 1`,
		`nitro_request_seconds_bucket{route="` + rendered + `",le="0.5"} 1`,
		`nitro_request_seconds_bucket{route="` + rendered + `",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestLabeledSeriesRoundTrip: labeled metrics written by the registry must
// pass the same lint a live scrape runs, and distinct label values must
// produce distinct sorted sample lines under one TYPE header.
func TestLabeledSeriesRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register(func(emit func(Metric)) {
		emit(Counter("nitro_server_tenant_requests_total", "Requests per tenant.", 3,
			Label{Key: "tenant", Value: "zeta"}))
		emit(Counter("nitro_server_tenant_requests_total", "Requests per tenant.", 5,
			Label{Key: "tenant", Value: "acme"}))
	})
	text, err := r.PrometheusText()
	if err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("labeled exposition fails lint: %v\n%s", err, text)
	}
	acme := strings.Index(text, `nitro_server_tenant_requests_total{tenant="acme"} 5`)
	zeta := strings.Index(text, `nitro_server_tenant_requests_total{tenant="zeta"} 3`)
	if acme < 0 || zeta < 0 {
		t.Fatalf("labeled samples missing:\n%s", text)
	}
	if acme > zeta {
		t.Fatalf("samples not sorted by label value:\n%s", text)
	}
	if strings.Count(text, "# TYPE nitro_server_tenant_requests_total") != 1 {
		t.Fatalf("labeled family should share one TYPE header:\n%s", text)
	}
}

// TestHistogramMetricExport: a live Histogram exported through
// HistogramMetric must carry cumulative buckets and survive the lint with
// a route label attached.
func TestHistogramMetricExport(t *testing.T) {
	h := NewHistogram()
	for _, v := range []float64{0.0001, 0.0002, 0.05, 1.5} {
		h.Record(v)
	}
	m := HistogramMetric("nitro_server_http_request_seconds", "Request latency.",
		h, DefaultBounds(), Label{Key: "route", Value: "pull"})
	if m.Count != 4 {
		t.Fatalf("Count = %d, want 4", m.Count)
	}
	if m.Sum <= 0 {
		t.Fatalf("Sum = %v, want > 0", m.Sum)
	}
	last := int64(-1)
	for _, b := range m.Buckets {
		if b.Count < last {
			t.Fatalf("buckets not cumulative: %+v", m.Buckets)
		}
		last = b.Count
	}
	r := NewRegistry()
	r.Register(func(emit func(Metric)) { emit(m) })
	text, err := r.PrometheusText()
	if err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("histogram exposition fails lint: %v\n%s", err, text)
	}
	if !strings.Contains(text, `nitro_server_http_request_seconds_bucket{route="pull",le="+Inf"} 4`) {
		t.Fatalf("+Inf bucket missing:\n%s", text)
	}
}

// TestRuntimeCollector: the opt-in runtime series must be present,
// plausible and lint-clean.
func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	r.Register(RuntimeCollector())
	text, err := r.PrometheusText()
	if err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	if err := ValidatePrometheusText(text); err != nil {
		t.Fatalf("runtime series fail lint: %v", err)
	}
	for _, name := range []string{
		"nitro_runtime_goroutines", "nitro_runtime_heap_alloc_bytes",
		"nitro_runtime_gc_pause_seconds_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("runtime series %s missing", name)
		}
	}
	var metrics []Metric
	RuntimeCollector()(func(m Metric) { metrics = append(metrics, m) })
	for _, m := range metrics {
		if m.Name == "nitro_runtime_goroutines" && m.Value < 1 {
			t.Errorf("goroutines = %v, want >= 1", m.Value)
		}
	}
}
