// Telemetry export for the adaptation engine: stable JSON forms for the
// event timeline, drift gauges for the metrics endpoint, and the debug-vars
// registration that puts the adaptation timeline tail on /vars.
package online

import (
	"encoding/json"

	"nitro/internal/obs"
)

// eventJSON fixes Event's wire field names, so external scrapers get a
// stable snake_case schema (mirrors core's adaptStatsJSON pattern).
type eventJSON struct {
	Seq          int       `json:"seq"`
	Call         int64     `json:"call"`
	Kind         EventKind `json:"kind"`
	MismatchRate float64   `json:"mismatch_rate"`
	Regret       float64   `json:"regret"`
	Version      int       `json:"version"`
	Detail       string    `json:"detail,omitempty"`
}

// MarshalJSON serializes the event with stable snake_case field names.
func (ev Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON(ev))
}

// UnmarshalJSON accepts the MarshalJSON wire form.
func (ev *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*ev = Event(j)
	return nil
}

// Collector exports the engine's adaptation and drift gauges under the
// nitro_adapt_* namespace, labelled with the tunable function's name.
// Register it on an obs.Registry next to Context.Collector().
func (e *Engine[In]) Collector(function string) obs.Collector {
	return func(emit func(obs.Metric)) {
		s := e.Stats()
		labels := []obs.Label{{Key: "function", Value: function}}
		counter := func(name, help string, v float64) {
			emit(obs.Metric{Name: name, Help: help, Kind: obs.KindCounter, Labels: labels, Value: v})
		}
		gauge := func(name, help string, v float64) {
			emit(obs.Metric{Name: name, Help: help, Kind: obs.KindGauge, Labels: labels, Value: v})
		}
		counter("nitro_adapt_calls_total", "Dispatches seen by the adaptation observer.", float64(s.Calls))
		counter("nitro_adapt_sampled_total", "Calls admitted by the sampling rate limiter.", float64(s.Sampled))
		counter("nitro_adapt_explored_total", "Sampled calls on which alternatives were re-timed.", float64(s.Explored))
		counter("nitro_adapt_explore_failures_total", "Variant failures during exploration re-timings.", float64(s.ExploreFailures))
		counter("nitro_adapt_mismatches_total", "Explored observations whose observed best differed from the prediction.", float64(s.Mismatches))
		counter("nitro_adapt_windows_total", "Completed drift-detector windows.", float64(s.Windows))
		counter("nitro_adapt_drifts_total", "Sustained-drift detections.", float64(s.Drifts))
		counter("nitro_adapt_retrains_total", "Background retrains started.", float64(s.Retrains))
		counter("nitro_adapt_retrains_deferred_total", "Drift windows with retraining deferred for lack of samples.", float64(s.RetrainsDeferred))
		counter("nitro_adapt_swaps_total", "Candidate models hot-swapped in.", float64(s.Swaps))
		counter("nitro_adapt_rollbacks_total", "Candidate models rejected on the holdout.", float64(s.Rollbacks))
		gauge("nitro_adapt_explore_seconds", "Accumulated exploration cost (optimization-value seconds).", s.ExploreSeconds)
		gauge("nitro_adapt_mismatch_rate", "Most recently closed window's mismatch rate.", s.LastMismatchRate)
		gauge("nitro_adapt_regret", "Most recently closed window's mean relative regret.", s.LastRegret)
		gauge("nitro_adapt_state", "Drift state (0=healthy,1=drifting,2=retraining).", float64(e.State()))
		gauge("nitro_adapt_model_version", "Stamped version of the installed model.", float64(s.ModelVersion))
		paused := 0.0
		if s.Paused {
			paused = 1
		}
		gauge("nitro_adapt_paused", "Whether the engine is paused (1=paused).", paused)
	}
}

// RegisterVars puts the engine's adaptation statistics and the tail of its
// event timeline on the registry's JSON debug view (/vars and the "nitro"
// expvar). tail bounds the timeline length (<= 0 means the full timeline).
func (e *Engine[In]) RegisterVars(reg *obs.Registry, function string, tail int) {
	reg.RegisterVar("adapt_stats:"+function, func() any { return e.Stats() })
	reg.RegisterVar("adapt_events:"+function, func() any {
		evs := e.Events()
		if tail > 0 && len(evs) > tail {
			evs = evs[len(evs)-tail:]
		}
		return evs
	})
}
