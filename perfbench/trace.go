package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by benchmark code around
// the public function it calls. Times are nanoseconds since the run began.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory; write dumps them when the run
// ends. The zero value records nothing, and neither does a tracer whose
// on flag is off (the traced run switches it per measured unit, so traced
// and untraced units can be compared).
type tracer struct {
	on    bool
	run   string
	t0    time.Time
	spans []span
	open  []int
}

func newTracer(o *options) *tracer {
	return &tracer{on: o.trace, run: fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, processStart.UnixNano()), t0: processStart}
}

// begin opens a span under the innermost open one and returns its id (-1
// when not recording).
func (t *tracer) begin(name string) int {
	if t == nil || !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// durations returns the durations in nanoseconds of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// sum returns the total duration in nanoseconds of the named spans.
func (t *tracer) sum(name string) float64 {
	var total float64
	for _, d := range t.durations(name) {
		total += d
	}
	return total
}

// spanSummary aggregates the spans of one name. Self time is a span's
// duration minus the time its children cover; children never overlap,
// because one goroutine drives the workload.
type spanSummary struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNs int64  `json:"total_ns"`
	SelfNs  int64  `json:"self_ns"`
}

func (t *tracer) summary() []spanSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanSummary{}
	for i, s := range t.spans {
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
		}
		sum.Count++
		sum.TotalNs += s.End - s.Start
		sum.SelfNs += s.End - s.Start - child[i]
	}
	out := make([]spanSummary, 0, len(by))
	for _, s := range by {
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write dumps the run id, the per-name summary and every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Run     string        `json:"run"`
		Summary []spanSummary `json:"summary"`
		Spans   []span        `json:"spans"`
	}{t.run, t.summary(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// overheadPct compares the traced units' median duration with the
// untraced units' (both in the same traced run, interleaved).
func overheadPct(traced, untraced []float64) float64 {
	base := percentile(untraced, 0.5)
	if base == 0 {
		return 0
	}
	return 100 * (percentile(traced, 0.5)/base - 1)
}
