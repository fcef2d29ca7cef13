package main

import (
	"math"
	"runtime"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/ml"
)

// Per-layer loops for the traced run. Functions that take well under a
// microsecond (FeatureVector, SelectIndex, PredictTier, PredictExact) are
// timed in their own loops over the workload's inputs, not per call, so
// the clock reads do not swamp them.

// layerTarget is one function a workload serves: its code variant, the
// model installed for it, and the inputs the workload feeds it.
type layerTarget struct {
	name   string
	cx     *core.Context
	cv     *core.CodeVariant[autotuner.Instance]
	model  *ml.Model
	inputs []autotuner.Instance
}

// timeLoop runs body n times inside one span and returns ns per iteration.
func timeLoop(t *tracer, name string, n int, body func(i int)) float64 {
	id := t.begin(name)
	start := time.Now()
	for i := 0; i < n; i++ {
		body(i)
	}
	el := time.Since(start)
	t.end(id)
	return float64(el.Nanoseconds()) / float64(n)
}

// timeEach runs body n times, one span per call, and returns each call's
// duration in microseconds.
func timeEach(t *tracer, name string, n int, body func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		id := t.begin(name)
		start := time.Now()
		body(i)
		out[i] = float64(time.Since(start).Nanoseconds()) / 1e3
		t.end(id)
	}
	return out
}

// measureLayers reports the core and ml per-layer metrics for targets,
// which hold sets copies of the workload's function set (sizes are
// reported per set); iters is the loop length per function for the
// sub-microsecond loops.
func measureLayers(r *report, t *tracer, targets []layerTarget, sets, iters int) error {
	var feat, sel, call, predC, predE, install, decode []float64
	var agree, total, nodes, depth, bytes int64
	var mallocs uint64
	for _, g := range targets {
		in := g.inputs
		vecs := make([][]float64, len(in))
		for i := range in {
			vecs[i], _ = g.cv.FeatureVector(in[i])
		}
		feat = append(feat, timeLoop(t, "core.FeatureVector", iters, func(i int) { g.cv.FeatureVector(in[i%len(in)]) }))
		sel = append(sel, timeLoop(t, "core.SelectIndex", iters, func(i int) { g.cv.SelectIndex(in[i%len(in)], vecs[i%len(in)]) }))
		allocs := startAllocs()
		call = append(call, timeLoop(t, "core.Call", iters, func(i int) { g.cv.Call(in[i%len(in)]) }))
		mallocs += allocs.count()
		predC = append(predC, timeLoop(t, "ml.PredictTier", iters, func(i int) { g.model.PredictTier(vecs[i%len(in)]) }))
		predE = append(predE, timeLoop(t, "ml.PredictExact", iters, func(i int) { g.model.PredictExact(vecs[i%len(in)]) }))
		for _, v := range vecs {
			p, _ := g.model.PredictTier(v)
			if p == g.model.PredictExact(v) {
				agree++
			}
			total++
		}
		if c := g.model.Compiled; c != nil {
			nodes += int64(len(c.Nodes))
			depth = max(depth, int64(c.Depth()))
		}
		data, etag, err := ml.EncodeArtifact(g.model)
		if err != nil {
			return err
		}
		bytes += int64(len(data))
		n := max(iters/500, 4)
		var decErr error
		decode = append(decode, timeLoop(t, "ml.DecodeArtifact", n, func(int) {
			if _, err := ml.DecodeArtifact(data, etag); err != nil {
				decErr = err
			}
		})/1e3)
		if decErr != nil {
			return decErr
		}
		var setErr error
		install = append(install, timeLoop(t, "core.SetModel", n, func(int) {
			if err := g.cx.SetModel(g.name, g.model); err != nil {
				setErr = err
			}
		})/1e3)
		if setErr != nil {
			return setErr
		}
	}
	k := len(targets)
	r.set("core.allocs_per_call", float64(mallocs)/float64(k*iters), k*iters)
	r.set("core.features_ns", mean(feat), k*iters)
	r.set("core.select_ns", mean(sel), k*iters)
	r.set("core.call_rest_ns", mean(call)-mean(feat)-mean(sel), k*iters)
	r.set("ml.predict_compiled_ns", mean(predC), k*iters)
	r.set("ml.predict_exact_ns", mean(predE), k*iters)
	r.set("ml.compiled_agree_pct", pct(agree, total), int(total))
	r.set("ml.compiled_nodes", float64(nodes)/float64(sets), k)
	r.set("ml.compiled_depth", float64(depth), k)
	r.set("ml.model_bytes", float64(bytes)/float64(sets), k)
	r.set("ml.decode_us", mean(decode), k)
	r.set("core.install_us", mean(install), k)
	return nil
}

// allocCounter counts heap allocations over a stretch of the run.
type allocCounter struct{ before uint64 }

func startAllocs() allocCounter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocCounter{ms.Mallocs}
}

func (a allocCounter) count() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - a.before
}

// sameCost reports whether a served value equals the expected cost.
func sameCost(got, want float64) bool {
	return got == want || (math.IsInf(got, 1) && math.IsInf(want, 1))
}
