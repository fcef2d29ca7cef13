// Telemetry export: a small metrics registry with Prometheus text exposition
// and an expvar-compatible JSON view, served over an opt-in HTTP endpoint.
//
// The registry is pull-based: sources register Collector closures that emit
// Metric values at scrape time, so the hot path pays nothing for telemetry —
// all aggregation work happens when a scraper asks. Metric naming is linted
// at exposition time: every metric must carry the "nitro_" prefix (enforced,
// not advised), names and label sets are validated against the Prometheus
// data model, and output is sorted so scrapes of an idle process are
// byte-identical.
package obs

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// MetricKind is the Prometheus metric type.
type MetricKind string

const (
	KindCounter   MetricKind = "counter"
	KindGauge     MetricKind = "gauge"
	KindHistogram MetricKind = "histogram"
)

// Label is one metric label; ordered slices keep exposition deterministic.
type Label struct {
	Key   string
	Value string
}

// Bucket is one cumulative histogram bucket (observations <= LE).
type Bucket struct {
	LE    float64
	Count int64
}

// Metric is one exported sample (or, for KindHistogram, one bucketed series).
type Metric struct {
	Name   string
	Help   string
	Kind   MetricKind
	Labels []Label
	// Value carries the sample for counters and gauges.
	Value float64
	// Buckets / Count / Sum carry the series for histograms.
	Buckets []Bucket
	Count   int64
	Sum     float64
}

// Counter builds a counter Metric (labels optional).
func Counter(name, help string, value float64, labels ...Label) Metric {
	return Metric{Name: name, Help: help, Kind: KindCounter, Value: value, Labels: labels}
}

// Gauge builds a gauge Metric (labels optional).
func Gauge(name, help string, value float64, labels ...Label) Metric {
	return Metric{Name: name, Help: help, Kind: KindGauge, Value: value, Labels: labels}
}

// HistogramMetric exports a live Histogram as a (optionally labeled)
// Prometheus histogram Metric with cumulative buckets at bounds — the
// bridge between the lock-free recording side and the exposition format.
func HistogramMetric(name, help string, h *Histogram, bounds []float64, labels ...Label) Metric {
	counts, count, sum := h.Cumulative(bounds)
	buckets := make([]Bucket, len(bounds))
	for i, le := range bounds {
		buckets[i] = Bucket{LE: le, Count: counts[i]}
	}
	return Metric{Name: name, Help: help, Kind: KindHistogram, Labels: labels,
		Buckets: buckets, Count: count, Sum: sum}
}

// Collector emits metrics at scrape time.
type Collector func(emit func(Metric))

// Registry aggregates collectors and debug variables into one telemetry
// surface: Prometheus text at /metrics, a JSON dump at /vars (also published
// as the process-wide "nitro" expvar), and /healthz. Safe for concurrent use.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
	vars       []debugVar
}

type debugVar struct {
	name string
	fn   func() any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a metrics collector.
func (r *Registry) Register(c Collector) {
	if c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// RegisterVar adds a named debug variable to the JSON view (/vars and the
// "nitro" expvar). fn is called at dump time and must return a
// JSON-marshalable value.
func (r *Registry) RegisterVar(name string, fn func() any) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.vars = append(r.vars, debugVar{name: name, fn: fn})
}

// gather runs every collector and returns the metrics.
func (r *Registry) gather() []Metric {
	r.mu.Lock()
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()
	var out []Metric
	for _, c := range collectors {
		c(func(m Metric) { out = append(out, m) })
	}
	return out
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validateMetric enforces the naming contract: Prometheus-legal names and
// label keys, and the repo-wide "nitro_" prefix on every exported metric.
func validateMetric(m Metric) error {
	if !strings.HasPrefix(m.Name, "nitro_") {
		return fmt.Errorf("obs: metric %q violates the nitro_ prefix convention", m.Name)
	}
	if !metricNameRe.MatchString(m.Name) {
		return fmt.Errorf("obs: metric %q is not a legal Prometheus name", m.Name)
	}
	for _, l := range m.Labels {
		if !labelNameRe.MatchString(l.Key) {
			return fmt.Errorf("obs: metric %q has illegal label name %q", m.Name, l.Key)
		}
	}
	switch m.Kind {
	case KindCounter, KindGauge, KindHistogram:
	default:
		return fmt.Errorf("obs: metric %q has unknown kind %q", m.Name, m.Kind)
	}
	return nil
}

// labelValueEscaper applies the exposition format's only three label-value
// escapes; every other byte, a tab or a NUL included, goes out as it is.
var labelValueEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelString renders {k="v",...} (empty string for no labels), with one
// extra label appended when extra is non-nil.
func labelString(labels []Label, extra *Label) string {
	if extra != nil {
		// The full slice expression makes append copy, so the caller's
		// backing array is never written.
		labels = append(labels[:len(labels):len(labels)], *extra)
	}
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		labelValueEscaper.WriteString(&b, l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// fmtValue renders a sample value the way Prometheus expects.
func fmtValue(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus writes the registry's metrics in Prometheus text
// exposition format (version 0.0.4). Metrics are grouped by name with one
// HELP/TYPE header each and sorted by (name, labels), so repeated scrapes of
// an unchanged registry are byte-identical. A metric violating the naming
// contract fails the whole exposition — the lint is load-bearing, not
// advisory.
func (r *Registry) WritePrometheus(w *strings.Builder) error {
	metrics := r.gather()
	for _, m := range metrics {
		if err := validateMetric(m); err != nil {
			return err
		}
	}
	byName := map[string][]Metric{}
	var names []string
	for _, m := range metrics {
		if _, ok := byName[m.Name]; !ok {
			names = append(names, m.Name)
		}
		byName[m.Name] = append(byName[m.Name], m)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		if group[0].Help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, group[0].Help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, group[0].Kind)
		lines := make([]string, 0, len(group))
		for _, m := range group {
			switch m.Kind {
			case KindHistogram:
				var cum string
				for _, b := range m.Buckets {
					le := Label{"le", fmtValue(b.LE)}
					cum = fmt.Sprintf("%s_bucket%s %d\n", name, labelString(m.Labels, &le), b.Count)
					lines = append(lines, cum)
				}
				inf := Label{"le", "+Inf"}
				lines = append(lines,
					fmt.Sprintf("%s_bucket%s %d\n", name, labelString(m.Labels, &inf), m.Count),
					fmt.Sprintf("%s_sum%s %s\n", name, labelString(m.Labels, nil), fmtValue(m.Sum)),
					fmt.Sprintf("%s_count%s %d\n", name, labelString(m.Labels, nil), m.Count))
			default:
				lines = append(lines, fmt.Sprintf("%s%s %s\n", name, labelString(m.Labels, nil), fmtValue(m.Value)))
			}
		}
		sort.Strings(lines)
		for _, l := range lines {
			w.WriteString(l)
		}
	}
	return nil
}

// PrometheusText returns the full exposition (or an error when a collector
// emitted an illegal metric).
func (r *Registry) PrometheusText() (string, error) {
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// varsSnapshot builds the JSON debug view: every registered variable plus a
// flat dump of the metric samples.
func (r *Registry) varsSnapshot() map[string]any {
	r.mu.Lock()
	vars := make([]debugVar, len(r.vars))
	copy(vars, r.vars)
	r.mu.Unlock()
	out := map[string]any{}
	for _, v := range vars {
		out[v.name] = v.fn()
	}
	samples := map[string]any{}
	for _, m := range r.gather() {
		key := m.Name + labelString(m.Labels, nil)
		if m.Kind == KindHistogram {
			samples[key] = map[string]any{"count": m.Count, "sum": m.Sum}
		} else {
			samples[key] = m.Value
		}
	}
	out["metrics"] = samples
	return out
}

// VarsJSON returns the JSON debug view (deterministic: object keys sort).
func (r *Registry) VarsJSON() ([]byte, error) {
	return json.MarshalIndent(r.varsSnapshot(), "", "  ")
}

// liveRegistries tracks every registry that has built an HTTP handler, so the
// process-wide "nitro" expvar (published once) can enumerate them all.
var (
	liveRegistries sync.Map // *Registry -> struct{}
	publishOnce    sync.Once
)

func publishExpvar() {
	publishOnce.Do(func() {
		expvar.Publish("nitro", expvar.Func(func() any {
			all := []map[string]any{}
			liveRegistries.Range(func(k, _ any) bool {
				all = append(all, k.(*Registry).varsSnapshot())
				return true
			})
			if len(all) == 1 {
				return all[0]
			}
			return all
		}))
	})
}

// Handler returns the telemetry endpoint:
//
//	/metrics     Prometheus text exposition
//	/vars        this registry's JSON debug view
//	/debug/vars  the standard expvar page (includes the "nitro" var)
//	/healthz     "ok"
//
// Building a handler registers the registry with the process-wide "nitro"
// expvar.
func (r *Registry) Handler() http.Handler {
	liveRegistries.Store(r, struct{}{})
	publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		text, err := r.PrometheusText()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, text)
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, req *http.Request) {
		data, err := r.VarsJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write(data)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// ServerConfig hardens an HTTP listener against slow or stuck clients. The
// zero value of any field selects the documented default; a negative value
// disables that timeout explicitly. Without these limits a single client
// that dribbles its request header (Slowloris) holds a connection — and its
// goroutine — forever, which matters as soon as the listener faces a
// network instead of localhost.
type ServerConfig struct {
	// ReadHeaderTimeout bounds how long a client may take to send the full
	// request header (default 5s).
	ReadHeaderTimeout time.Duration
	// ReadTimeout bounds reading the entire request including the body
	// (default 15s).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing the response (default 30s — a scrape of a
	// large exposition to a slow collector still fits comfortably).
	WriteTimeout time.Duration
	// IdleTimeout bounds how long a keep-alive connection may sit idle
	// between requests (default 2m).
	IdleTimeout time.Duration
}

// DefaultServerConfig returns the hardened defaults.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       15 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// withDefaults resolves the zero/negative convention: zero fields take the
// defaults, negative fields disable the timeout (http.Server treats 0 as
// "no timeout").
func (c ServerConfig) withDefaults() ServerConfig {
	d := DefaultServerConfig()
	resolve := func(v, def time.Duration) time.Duration {
		if v == 0 {
			return def
		}
		if v < 0 {
			return 0
		}
		return v
	}
	c.ReadHeaderTimeout = resolve(c.ReadHeaderTimeout, d.ReadHeaderTimeout)
	c.ReadTimeout = resolve(c.ReadTimeout, d.ReadTimeout)
	c.WriteTimeout = resolve(c.WriteTimeout, d.WriteTimeout)
	c.IdleTimeout = resolve(c.IdleTimeout, d.IdleTimeout)
	return c
}

// Server is a running telemetry endpoint.
type Server struct {
	listener net.Listener
	srv      *http.Server
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close shuts the endpoint down abruptly: in-flight requests are aborted
// mid-body. Prefer Shutdown for anything a scraper might be reading.
func (s *Server) Close() error { return s.srv.Close() }

// Shutdown drains the endpoint gracefully: the listener closes immediately
// (no new connections), in-flight requests run to completion, and idle
// keep-alive connections are closed. When ctx expires first the remaining
// connections are aborted (Close) and ctx's error is returned — a stuck
// client cannot wedge a teardown.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // best-effort abort of stragglers
	}
	return err
}

// ServeHandler starts a hardened HTTP server for h on addr (":0" picks a
// free port) and serves it on a background goroutine until Close/Shutdown.
// It is the one listener-construction path in the repo: the telemetry
// endpoint and the tuning daemon both front their handlers with it, so the
// slow-client limits apply everywhere by construction.
func ServeHandler(addr string, h http.Handler, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	cfg = cfg.withDefaults()
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: cfg.ReadHeaderTimeout,
		ReadTimeout:       cfg.ReadTimeout,
		WriteTimeout:      cfg.WriteTimeout,
		IdleTimeout:       cfg.IdleTimeout,
	}
	go srv.Serve(ln) //nolint:errcheck // Close/Shutdown surface as ErrServerClosed
	return &Server{listener: ln, srv: srv}, nil
}

// Serve starts the telemetry endpoint on addr (":0" picks a free port) with
// the default hardening limits and serves it on a background goroutine until
// Close/Shutdown.
func (r *Registry) Serve(addr string) (*Server, error) {
	return r.ServeConfig(addr, ServerConfig{})
}

// ServeConfig is Serve with explicit listener limits.
func (r *Registry) ServeConfig(addr string, cfg ServerConfig) (*Server, error) {
	return ServeHandler(addr, r.Handler(), cfg)
}

// ValidatePrometheusText lints a scraped exposition: every sample line must
// parse, every metric must be nitro_-prefixed and covered by a preceding
// TYPE header. This is the checker `make metrics-smoke` runs against a live
// scrape.
func ValidatePrometheusText(text string) error {
	typed := map[string]string{}
	sawSample := false
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("obs: line %d: malformed TYPE comment %q", ln+1, line)
			}
			typed[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sawSample = true
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !metricNameRe.MatchString(name) {
			return fmt.Errorf("obs: line %d: illegal metric name %q", ln+1, name)
		}
		if !strings.HasPrefix(name, "nitro_") {
			return fmt.Errorf("obs: line %d: metric %q violates the nitro_ prefix convention", ln+1, name)
		}
		if !sampleTyped(name, typed) {
			return fmt.Errorf("obs: line %d: sample %q has no TYPE header", ln+1, name)
		}
		rest := line[len(name):]
		if strings.HasPrefix(rest, "{") {
			n, err := validateLabelBlock(rest)
			if err != nil {
				return fmt.Errorf("obs: line %d: sample %q: %w", ln+1, name, err)
			}
			rest = rest[n:]
		}
		if !strings.HasPrefix(rest, " ") || strings.TrimSpace(rest) == "" {
			return fmt.Errorf("obs: line %d: sample %q has no value", ln+1, line)
		}
		value := strings.TrimSpace(rest)
		if i := strings.IndexByte(value, ' '); i >= 0 {
			// An optional timestamp may follow the value.
			value = value[:i]
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("obs: line %d: sample %q has unparsable value %q", ln+1, name, value)
		}
	}
	if !sawSample {
		return fmt.Errorf("obs: exposition contains no samples")
	}
	return nil
}

// validateLabelBlock checks a {k="v",...} label block at the start of s
// against the exposition grammar — legal label names, double-quoted values
// with only \\, \" and \n escapes, comma separation, no duplicate keys —
// and returns how many bytes the block spans (including both braces).
func validateLabelBlock(s string) (int, error) {
	i := 1 // past '{'
	seen := map[string]bool{}
	afterComma := false
	for {
		if i < len(s) && s[i] == '}' {
			if afterComma {
				return 0, fmt.Errorf("trailing comma in label block")
			}
			return i + 1, nil
		}
		afterComma = false
		start := i
		for i < len(s) && (s[i] == '_' ||
			s[i] >= 'a' && s[i] <= 'z' || s[i] >= 'A' && s[i] <= 'Z' ||
			s[i] >= '0' && s[i] <= '9') {
			i++
		}
		name := s[start:i]
		if !labelNameRe.MatchString(name) {
			return 0, fmt.Errorf("illegal label name %q", name)
		}
		if seen[name] {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		seen[name] = true
		if i >= len(s) || s[i] != '=' {
			return 0, fmt.Errorf("label %q not followed by '='", name)
		}
		i++
		if i >= len(s) || s[i] != '"' {
			return 0, fmt.Errorf("label %q value is not quoted", name)
		}
		i++
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' {
				i++
				if i >= len(s) || (s[i] != '\\' && s[i] != '"' && s[i] != 'n') {
					return 0, fmt.Errorf("label %q value has illegal escape", name)
				}
			}
			i++
		}
		if i >= len(s) {
			return 0, fmt.Errorf("label %q value is unterminated", name)
		}
		i++ // closing quote
		switch {
		case i < len(s) && s[i] == ',':
			i++
			afterComma = true
		case i < len(s) && s[i] == '}':
			// loop terminates at the top
		default:
			return 0, fmt.Errorf("label block not closed after %q", name)
		}
	}
}

// sampleTyped reports whether a sample name is covered by a TYPE header: the
// name itself carries one, or the name is a histogram series — exactly one of
// the _bucket/_sum/_count suffixes stripped resolves to a base declared as a
// histogram. Each suffix alternative is resolved independently: stripping
// them sequentially would peel two suffixes off a metric literally named
// e.g. nitro_foo_sum_bucket (base nitro_foo instead of nitro_foo_sum),
// letting an untyped sample pass — or a validly typed one fail — the lint.
func sampleTyped(name string, typed map[string]string) bool {
	if _, ok := typed[name]; ok {
		return true
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if typed[base] == string(KindHistogram) {
				return true
			}
		}
	}
	return false
}
