// Command perfbench is the repository benchmark. It drives three seeded,
// closed-loop workloads from one goroutine against the public functions of
// internal/core, ml, datasets, autotuner, online, server and server/client,
// checks every output against references it computes itself, and prints
// one JSON result as its last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) records spans around every call into a layer and reports the
// per-layer metrics. NOTES.md explains each workload and metric. Run it from
// the repository root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload dispatch_hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart approximates the process start time; the first set-up of a
// run is timed from it.
var processStart = time.Now()

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"call_ns_p50", "ns"}, {"call_ns_p90", "ns"},
	{"oracle_pct", "%"},
	{"adapt_ms_p50", "ms"}, {"adapt_ms_p90", "ms"},
}

// perLayer lists the metrics every traced run prints. A layer the workload
// does not reach reports 0 with sample count 0.
var perLayer = []metricSpec{
	{"core.memo_hit_pct", "%"}, {"core.compiled_pct", "%"}, {"core.exact_pct", "%"},
	{"core.fallback_pct", "%"}, {"core.allocs_per_call", "count"},
	{"core.features_ns", "ns"}, {"core.select_ns", "ns"}, {"core.call_rest_ns", "ns"},
	{"core.install_us", "us"},
	{"ml.predict_compiled_ns", "ns"}, {"ml.predict_exact_ns", "ns"},
	{"ml.compiled_agree_pct", "%"}, {"ml.compiled_nodes", "count"}, {"ml.compiled_depth", "count"},
	{"ml.distill_s", "s"}, {"ml.model_bytes", "B"}, {"ml.decode_us", "us"},
	{"datasets.spmv_s", "s"}, {"datasets.solvers_s", "s"}, {"datasets.bfs_s", "s"},
	{"datasets.histogram_s", "s"}, {"datasets.sort_s", "s"}, {"datasets.variant_runs", "count"},
	{"autotuner.train_s", "s"}, {"autotuner.grid_points", "count"},
	{"autotuner.job_ms_p50", "ms"}, {"autotuner.job_rows", "count"},
	{"online.explore_pct", "%"}, {"online.retrains", "count"}, {"online.swaps", "count"},
	{"online.rollbacks", "count"}, {"online.swap_pct", "%"},
	{"online.detect_calls_p50", "count"}, {"online.swap_calls_p50", "count"},
	{"online.retrain_stall_ms_p50", "ms"},
	{"server.push_us_p50", "us"}, {"server.deployment_us_p50", "us"}, {"server.report_us_p50", "us"},
	{"server.http_push_us_p50", "us"}, {"server.http_poll_us_p50", "us"},
	{"server.journal_appends_per_episode", "count"}, {"server.requests_per_episode", "count"},
	{"server.pulls_304_pct", "%"}, {"server.shed", "count"}, {"server.rolled_back", "count"},
	{"client.poll_us_p50", "us"}, {"client.poll_us_p90", "us"},
	{"client.push_us_p50", "us"}, {"client.push_us_p90", "us"},
	{"client.pull_us_p50", "us"}, {"client.report_rounds", "count"}, {"client.poll_failures", "count"},
	{"bench.trace_overhead_pct", "%"},
}

// options is one run's configuration.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// out is the directory the run may write to (registry data, spans).
	out string
	// tiny shrinks every corpus and op count to a smoke-test size.
	tiny bool
	// corrupt perturbs one reference value, so the output checks must fail.
	corrupt bool
	// freeze keeps adapt_drift's cost tables as labelled, so phases do
	// not drift and most end without a swap.
	freeze bool
}

// metric is one reported value with its sample count.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// report accumulates a run's outcome.
type report struct {
	// failed counts failed ops; wrong counts those among them whose
	// outputs failed a check (a wrong value or a call error). An op can
	// fail with every output right: an adapt_drift phase that ends
	// without a swap.
	attempted, failed, wrong int
	metrics                  map[string]metric
	// counts are the run's deterministic counts: the same seed and commit
	// must reproduce them exactly.
	counts map[string]int64
	// failures keeps the first few check failures for the log.
	failures []string
	// notes are extra comment lines, such as the raw (unnormalised) timings.
	notes []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, counts: map[string]int64{}}
}

func (r *report) set(name string, value float64, n int) {
	r.metrics[name] = metric{Value: value, N: n}
}

// timings collects per-unit raw and reference times, grouped by the
// function a unit served (one group when units mix functions).
type timings struct{ raw, ref [][]float64 }

func newTimings(groups int) *timings {
	return &timings{raw: make([][]float64, groups), ref: make([][]float64, groups)}
}

func (t *timings) add(group int, raw, ref float64) {
	t.raw[group] = append(t.raw[group], raw)
	t.ref[group] = append(t.ref[group], ref)
}

// setTimings reports the p50 and p90 of the reference times as name_p50
// and name_p90, and notes the same for the raw times. With several groups
// each percentile is the geometric mean over the groups of the group's
// own percentile, so every function weighs the same in relative terms: a
// median over functions jumped by 10% between seeds as their order
// changed, and a pooled percentile jumped by up to 2× when one function's
// seed-specific model was slow (say, its distilled program failed the
// agreement gate and every call took the exact tier).
func setTimings(r *report, name string, t *timings) {
	n := 0
	for _, g := range t.ref {
		n += len(g)
	}
	pct := func(groups [][]float64, q float64) float64 {
		var logSum float64
		k := 0
		for _, g := range groups {
			if len(g) > 0 {
				logSum += math.Log(percentile(g, q))
				k++
			}
		}
		if k == 0 {
			return 0
		}
		return math.Exp(logSum / float64(k))
	}
	r.set(name+"_p50", pct(t.ref, 0.5), n)
	r.set(name+"_p90", pct(t.ref, 0.9), n)
	r.notes = append(r.notes, fmt.Sprintf("raw %s p50 %.4f p90 %.4f", name, pct(t.raw, 0.5), pct(t.raw, 0.9)))
}

// fail records one failed op whose outputs failed a check.
func (r *report) fail(format string, args ...any) {
	r.wrong++
	r.miss(format, args...)
}

// miss records one failed op whose outputs all passed their checks.
func (r *report) miss(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloads = map[string]func(*options, *report) error{
	"dispatch_hot":  runDispatch,
	"adapt_drift":   runDrift,
	"fleet_rollout": runFleet,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "dispatch_hot, adapt_drift or fleet_rollout")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured duration; sets the amount of work")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for registry data and span dumps")
	flag.Parse()
	o.trace = trace == 1
	res, _, err := run(&o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its result; log receives the
// human-readable lines (sample counts, deterministic counts, failures).
func run(o *options, log io.Writer) (result, *report, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return result{}, nil, fmt.Errorf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return result{}, nil, err
	}
	rep := newReport()
	if err := fn(o, rep); err != nil {
		return result{}, nil, fmt.Errorf("%s: %w", o.workload, err)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	res := result{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	fmt.Fprintf(log, "# workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	for _, s := range specs {
		m, ok := rep.metrics[s.name]
		if !ok && !o.trace {
			return result{}, nil, fmt.Errorf("%s: end-to-end metric %s not measured", o.workload, s.name)
		}
		m.Unit = s.unit
		res.Metrics[s.name] = m
		fmt.Fprintf(log, "# %-36s %14.4f %-5s n=%d\n", s.name, m.Value, s.unit, m.N)
	}
	counts, _ := json.Marshal(rep.counts) // map keys marshal sorted
	fmt.Fprintf(log, "# counts %s\n", counts)
	fmt.Fprintf(log, "# failed ops %d of %d (%.4f%%), %d with a failed output check\n",
		rep.failed, rep.attempted, pct(int64(rep.failed), int64(rep.attempted)), rep.wrong)
	for _, n := range rep.notes {
		fmt.Fprintf(log, "# %s\n", n)
	}
	for _, f := range rep.failures {
		fmt.Fprintf(log, "# failed: %s\n", f)
	}
	// correct is about outputs: every served value and call passed its
	// check. Failed ops without a wrong output show in failed only.
	res.Correct = rep.wrong == 0 && rep.attempted > 0
	return res, rep, nil
}

// setups runs build k times, repetition rep on the inputs of
// repSeed(seed, rep), reports the median set-up time as setup_s and
// returns every result. Set-up time is raw wall time: the reference loop
// does not track library code that runs for seconds (see NOTES.md). The
// first set-up is timed from process start, so it includes runtime
// start-up. On error it returns the results built so far.
func setups[T any](r *report, k int, build func(rep int) (T, error)) ([]T, error) {
	out := make([]T, 0, k)
	times := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		start := time.Now()
		if i == 0 {
			start = processStart
		}
		v, err := build(i)
		if err != nil {
			return out, err
		}
		times = append(times, time.Since(start).Seconds())
		out = append(out, v)
	}
	r.set("setup_s", percentile(times, 0.5), k)
	r.notes = append(r.notes, fmt.Sprintf("setup_s per repetition %.4f", times))
	return out, nil
}

// repSeed derives the input seed of set-up repetition rep. Each
// repetition builds its own corpora, so one run measures several
// independent corpus sets and a seed's particular models weigh less.
func repSeed(seed int64, rep int) int64 {
	return seed*8 + int64(rep) + 1
}

// percentile returns the q-quantile of values by linear interpolation
// between closest ranks (0 for no values).
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean (0 for no values).
func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// pct returns 100*part/whole (0 when whole is 0).
func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// hashLines returns the FNV-1a hash of the lines, for the determinism
// counts (an event timeline is compared by hash, not line by line).
func hashLines(lines []string) int64 {
	h := fnv.New32a()
	h.Write([]byte(strings.Join(lines, "\n"))) //nolint:errcheck // hash writes cannot fail
	return int64(h.Sum32())
}

// spanPath is where a traced run writes its spans.
func spanPath(o *options) string {
	return filepath.Join(o.out, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}
