// Observability wiring for the deployment runtime: decision tracing on the
// dispatch path, opt-in per-variant latency histograms, and the metrics
// Collector that exports every deployment counter to internal/obs's
// telemetry endpoint.
//
// Everything here is off by default and costs the hot path one atomic
// pointer load per feature:
//
//   - No tracer installed (EnableTracing never called): dispatch pays one
//     atomic load to discover that.
//   - Tracer installed in Off mode: one atomic load plus one policy check.
//   - No histogram table installed: record pays one atomic load.
//
// The traced path deliberately reuses the exact functions dispatch itself
// uses (ml.Model.Explain is built on Scores/RankedClasses/Predict), so a
// trace can never disagree with the decision it explains.
package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"nitro/internal/obs"
)

// EnableTracing installs a fresh decision tracer with the given policy and
// returns it (for Recent/SetSink/Collector access). The swap is atomic:
// in-flight calls keep the tracer they already loaded. One tracer per
// CodeVariant; installing replaces the previous one.
func (cv *CodeVariant[In]) EnableTracing(pol obs.TracePolicy) *obs.Tracer {
	t := obs.NewTracer(pol)
	cv.tracer.Store(t)
	return t
}

// DisableTracing removes the installed tracer; subsequent dispatches pay one
// atomic load and record nothing.
func (cv *CodeVariant[In]) DisableTracing() { cv.tracer.Store(nil) }

// Tracer returns the installed tracer, or nil when tracing is disabled.
func (cv *CodeVariant[In]) Tracer() *obs.Tracer { return cv.tracer.Load() }

// dispatchTraced runs one admitted dispatch under full decision capture:
// the selection-time veto and quarantine view, the executed variant and the
// failure fallback hop count, and the explanation (raw + scaled features,
// per-class scores, pairwise SVM decision values, ranked preference order)
// of the model that predicted the call — the canary's challenger when it
// served the call, else the stable model the dispatch loaded.
func (cv *CodeVariant[In]) dispatchTraced(ctx context.Context, t *obs.Tracer, in *In, f *callFeatures[In]) (float64, string, error) {
	start := time.Now()
	vec := f.full(in)
	rec := obs.DecisionTrace{
		Function:    cv.policy.Name,
		RawFeatures: append([]float64(nil), vec...),
		Predicted:   -1,
		ChosenIdx:   -1,
		Start:       start,
	}
	var now int64
	if cv.policy.Quarantine.Enabled() {
		now = nowNanos()
	}
	for i := range cv.variants {
		if !cv.allowed(i, in) {
			rec.Vetoed = append(rec.Vetoed, cv.variants[i].name)
			continue
		}
		if cv.policy.Quarantine.Enabled() {
			if br := cv.variants[i].br; br != nil && br.open(now) {
				rec.Quarantined = append(rec.Quarantined, cv.variants[i].name)
			}
		}
	}
	r := cv.dispatchRun(ctx, in, f)
	if r.model != nil {
		ex := r.model.Explain(vec)
		rec.ScaledFeatures = ex.Scaled
		rec.Classes = ex.Classes
		rec.Scores = ex.Scores
		rec.PairDecisions = ex.PairDecisions
		rec.Ranked = ex.Ranked
		rec.Predicted = ex.Predicted
		rec.ModelVersion = ex.Version
	}
	rec.FellBack = r.fellBack
	rec.FallbackHops = r.hops
	rec.ChosenIdx = r.idx
	rec.Chosen = r.name
	rec.Value = r.value
	rec.Tier = r.tier.String()
	if r.err != nil {
		rec.Err = r.err.Error()
	}
	rec.WallNanos = time.Since(start).Nanoseconds()
	t.Emit(rec)
	return r.value, r.name, r.err
}

// histTable is one function's opt-in per-variant latency histogram set.
// After the first record for a given variant, the sync.Map read path is
// lock-free; each histogram is itself sharded and atomic.
type histTable struct {
	m sync.Map // variant name -> *obs.Histogram
}

func (ht *histTable) record(variant string, value float64) {
	h, ok := ht.m.Load(variant)
	if !ok {
		h, _ = ht.m.LoadOrStore(variant, obs.NewHistogram())
	}
	h.(*obs.Histogram).Record(value)
}

// summaries digests every variant's histogram and fills the per-variant
// regret estimate: (mean - bestMean) / bestMean, where bestMean is the lowest
// mean among variants that have observations (0 for the best variant itself).
func (ht *histTable) summaries() map[string]obs.LatencySummary {
	out := map[string]obs.LatencySummary{}
	ht.m.Range(func(k, v any) bool {
		out[k.(string)] = v.(*obs.Histogram).Snapshot()
		return true
	})
	best := 0.0
	haveBest := false
	for _, s := range out {
		if s.Count > 0 && (!haveBest || s.Mean < best) {
			best, haveBest = s.Mean, true
		}
	}
	if haveBest && best > 0 {
		for name, s := range out {
			if s.Count > 0 {
				s.Regret = (s.Mean - best) / best
				out[name] = s
			}
		}
	}
	return out
}

// EnableLatencyHistograms turns on per-variant latency histograms for fn:
// every recorded call value (by convention, seconds) feeds a log-bucketed
// lock-free histogram keyed by the executed variant. Context.Stats then
// reports p50/p95/p99 and regret per variant, and the Collector exports the
// full bucket series. Idempotent; safe to call while fn serves traffic.
func (cx *Context) EnableLatencyHistograms(fn string) {
	fs := cx.statsFor(fn)
	if fs.hists.Load() == nil {
		fs.hists.CompareAndSwap(nil, &histTable{})
	}
}

// DisableLatencyHistograms removes fn's histogram table (dropping its
// accumulated observations); recording reverts to one atomic load.
func (cx *Context) DisableLatencyHistograms(fn string) {
	cx.statsFor(fn).hists.Store(nil)
}

// Collector exports every registered function's deployment statistics as
// nitro_-prefixed metrics: call/fallback/failure counters, per-variant call
// counts, installed model version, and (when enabled) per-variant latency
// histograms. Register it on an obs.Registry to serve /metrics.
func (cx *Context) Collector() obs.Collector {
	return func(emit func(obs.Metric)) {
		cx.mu.Lock()
		names := make([]string, 0, len(cx.stats))
		stats := make(map[string]*funcStats, len(cx.stats))
		for n, fs := range cx.stats {
			names = append(names, n)
			stats[n] = fs
		}
		versions := map[string]int{}
		for n, slot := range cx.models {
			if m := slot.p.Load(); m != nil {
				versions[n] = m.Version()
			}
		}
		cx.mu.Unlock()
		sort.Strings(names)

		counter := func(name, help string, labels []obs.Label, v float64) {
			emit(obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Labels: labels, Value: v})
		}
		for _, fn := range names {
			s := stats[fn].snapshot()
			fl := []obs.Label{{Key: "function", Value: fn}}
			counter("nitro_calls_total", "Dispatched calls.", fl, float64(s.Calls))
			counter("nitro_default_fallbacks_total", "Selection-time fallbacks (constraint veto, quarantine, missing model).", fl, float64(s.DefaultFallbacks))
			counter("nitro_failure_fallbacks_total", "Failure-driven fallback hops.", fl, float64(s.Fallbacks))
			counter("nitro_panics_total", "Variant invocations that panicked (recovered).", fl, float64(s.Panics))
			counter("nitro_timeouts_total", "Variant invocations that exceeded VariantTimeout.", fl, float64(s.Timeouts))
			counter("nitro_quarantine_trips_total", "Quarantine circuit-breaker trips.", fl, float64(s.Quarantined))
			counter("nitro_quarantine_recoveries_total", "Successful half-open quarantine probes.", fl, float64(s.Recoveries))
			counter("nitro_value_seconds_total", "Accumulated optimization value (by convention, seconds).", fl, s.TotalValue)
			counter("nitro_feature_seconds_total", "Accumulated modelled feature-evaluation cost.", fl, s.FeatureSeconds)
			counter("nitro_dispatch_memo_hits_total", "Model predictions served from the memoization cache.", fl, float64(s.MemoHits))
			counter("nitro_dispatch_compiled_hits_total", "Model predictions served by the compiled artifact.", fl, float64(s.CompiledHits))
			counter("nitro_dispatch_exact_total", "Model predictions that evaluated the exact classifier.", fl, float64(s.ExactFallbacks))
			if v, ok := versions[fn]; ok {
				emit(obs.Metric{Name: "nitro_model_version", Help: "Installed model generation (0 unstamped).",
					Kind: obs.KindGauge, Labels: fl, Value: float64(v)})
			}
			variants := make([]string, 0, len(s.PerVariant))
			for v := range s.PerVariant {
				variants = append(variants, v)
			}
			sort.Strings(variants)
			for _, v := range variants {
				counter("nitro_variant_calls_total", "Calls executed per variant.",
					[]obs.Label{{Key: "function", Value: fn}, {Key: "variant", Value: v}},
					float64(s.PerVariant[v]))
			}
			if ht := stats[fn].hists.Load(); ht != nil {
				var hnames []string
				hists := map[string]*obs.Histogram{}
				ht.m.Range(func(k, v any) bool {
					hnames = append(hnames, k.(string))
					hists[k.(string)] = v.(*obs.Histogram)
					return true
				})
				sort.Strings(hnames)
				bounds := obs.DefaultBounds()
				for _, v := range hnames {
					counts, count, sum := hists[v].Cumulative(bounds)
					buckets := make([]obs.Bucket, len(bounds))
					for i, le := range bounds {
						buckets[i] = obs.Bucket{LE: le, Count: counts[i]}
					}
					emit(obs.Metric{
						Name: "nitro_variant_value_seconds", Help: "Per-variant optimization-value distribution.",
						Kind:    obs.KindHistogram,
						Labels:  []obs.Label{{Key: "function", Value: fn}, {Key: "variant", Value: v}},
						Buckets: buckets, Count: count, Sum: sum,
					})
				}
			}
		}
	}
}
