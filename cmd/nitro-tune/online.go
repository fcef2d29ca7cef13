// Online-replay mode: replay a deployment call stream through a live
// CodeVariant with an online adaptation engine attached, inject a synthetic
// concept drift mid-stream, and print the engine's adaptation timeline —
// sampling, exploration, drift detection, background retrain, hot-swap (or
// rollback) and recovery. The replay is serial, the engine synchronous and
// seeded, so the printed timeline is reproducible byte for byte (asserted by
// TestRunSpecOnlineReplayDeterministic).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/online"
)

// onlineReplayPolicy is the fixed adaptation configuration the replay uses:
// every 2nd call is a sampling candidate and half the samples are explored,
// so roughly a quarter of the stream is re-timed; 20-observation windows
// with a 2-window drift hysteresis keep the timeline short enough to read.
// Only the stream length, drift point, classifier and seed come from the
// spec — everything else is pinned so transcripts are comparable across
// specs.
func onlineReplayPolicy(spec Spec) online.Policy {
	pol := online.Policy{
		SamplePeriod:      2,
		ExploreRate:       0.5,
		ReservoirSize:     256,
		Window:            20,
		MismatchThreshold: 0.4,
		RegretThreshold:   0.5,
		DriftWindows:      2,
		RecoveryWindows:   2,
		CooldownWindows:   2,
		MinRetrainSamples: 24,
		Retrain: autotuner.RetrainOptions{
			TrainOptions: autotuner.TrainOptions{
				Classifier:  spec.Classifier,
				Seed:        spec.Seed,
				Parallelism: spec.Parallelism,
			},
		},
		Seed:        spec.Seed,
		Synchronous: true, // retrain inline: deterministic timeline
	}
	if spec.Incremental != nil {
		pol.Retrain.Incremental = true
		pol.Retrain.MaxIterations = spec.Incremental.Iterations
	}
	return pol
}

// rotateTimes returns a copy of the instance with its per-variant costs
// rotated by one slot: the feature→best-variant mapping changes while the
// features stay put — a pure concept drift from the selector's point of view.
func rotateTimes(in autotuner.Instance) autotuner.Instance {
	rot := make([]float64, len(in.Times))
	for j := range in.Times {
		rot[j] = in.Times[(j+1)%len(in.Times)]
	}
	cp := in
	cp.Times = rot
	return cp
}

// runOnlineReplay replays spec.OnlineReplay deployment calls over the
// feasible test instances through a live CodeVariant with an adaptation
// engine attached, switching every instance to its drifted (time-rotated)
// form at spec.DriftAt of the stream.
func runOnlineReplay(spec Spec, tel *telemetry, suite *autotuner.Suite, model *ml.Model, out io.Writer) error {
	feasible := autotuner.FeasibleTest(suite)
	if len(feasible) == 0 {
		return fmt.Errorf("online replay: no feasible test instances (set test_count or evaluate a benchmark with test inputs)")
	}
	cx := core.NewContext()
	policy := core.TuningPolicy{
		Name:                spec.Function,
		ParallelFeatureEval: spec.ParallelFeatureEval,
		AsyncFeatureEval:    spec.AsyncFeatureEval,
		ConstraintsEnabled:  spec.Constraints == nil || *spec.Constraints,
	}
	cv, err := autotuner.ReplayVariant(cx, suite, policy)
	if err != nil {
		return err
	}
	if err := cx.SetModel(spec.Function, model); err != nil {
		return err
	}
	eng, err := online.Attach(cv, onlineReplayPolicy(spec))
	if err != nil {
		return err
	}
	defer eng.Close()

	// Decision tracing: the replay is serial, admission is counter-exact and
	// DecisionTrace.String excludes wall-clock fields, so the collected
	// timeline is reproducible byte for byte across runs.
	var traceLines []string
	if tracer := tel.enableTracing(cv, spec.Function); tracer != nil {
		tracer.SetSink(func(tr obs.DecisionTrace) { traceLines = append(traceLines, tr.String()) })
	}
	if tel.reg != nil {
		cx.EnableLatencyHistograms(spec.Function)
		tel.reg.Register(cx.Collector())
		tel.reg.Register(eng.Collector(spec.Function))
		eng.RegisterVars(tel.reg, spec.Function, 64)
	}

	driftAt := spec.DriftAt
	if driftAt == 0 {
		driftAt = 0.3
	}
	driftCall := int(math.Round(driftAt * float64(spec.OnlineReplay)))
	fmt.Fprintf(out, "online replay: %d calls over %d feasible test inputs, drift injected at call %d (per-variant costs rotated)\n",
		spec.OnlineReplay, len(feasible), driftCall)
	served := 0
	for i := 0; i < spec.OnlineReplay; i++ {
		in := feasible[i%len(feasible)]
		if i >= driftCall {
			in = rotateTimes(in)
		}
		if _, _, err := cv.Call(in); err != nil {
			// A rotated instance can lose all feasible variants (every finite
			// cost moved onto a vetoed slot); skip it like deployments skip
			// unservable inputs.
			continue
		}
		served++
	}
	if tel.traceSet {
		fmt.Fprintf(out, "decision traces (%d):\n", len(traceLines))
		for _, line := range traceLines {
			fmt.Fprintf(out, "  %s\n", line)
		}
	}
	fmt.Fprintln(out, "adaptation timeline:")
	for _, ev := range eng.Events() {
		fmt.Fprintf(out, "  %s\n", ev)
	}
	st := eng.Stats()
	fmt.Fprintf(out, "online replay served %d/%d calls; %s\n", served, spec.OnlineReplay, st)
	if m, ok := cx.Model(spec.Function); ok && m.Meta != nil {
		fmt.Fprintf(out, "installed model: v%d (trained on %d observations)\n", m.Version(), m.Meta.TrainedOn)
	}
	if spec.StatsJSON {
		return emitStatsJSON(out, cx.Stats(spec.Function), &st)
	}
	return nil
}

// emitStatsJSON writes the machine-readable statistics line shared by the
// throughput and online replays: one JSON object with the replay context's
// CallStats and, when an adaptation engine ran, its AdaptStats.
func emitStatsJSON(out io.Writer, call core.CallStats, adapt *core.AdaptStats) error {
	payload := struct {
		CallStats  core.CallStats   `json:"call_stats"`
		AdaptStats *core.AdaptStats `json:"adapt_stats,omitempty"`
	}{CallStats: call, AdaptStats: adapt}
	data, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "stats json: %s\n", data)
	return nil
}
