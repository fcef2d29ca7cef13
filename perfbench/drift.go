package main

import (
	"fmt"
	"math/rand/v2"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/online"
)

// adapt_drift: the core layer used with writes beside reads. The five
// functions are tuned offline on smaller corpora, for five independent
// corpus sets, and each of the twenty-five gets an online engine with the
// default policy, run synchronously so retrains happen on the calling
// goroutine and every count is reproducible. The measured phase is a
// sequence of drift phases, one function each in turn: at the
// phase's first call every instance's cost vector rotates (or rotates
// back), so the installed model goes stale and the engine must explore,
// detect, retrain and swap; the phase ends a fixed number of calls after
// the swap. A phase that reaches a cap of calls without a swap is a failed
// op, and its capped duration counts in adapt_ms. Calls see novel feature
// vectors (a seeded relative jitter of held-out inputs), so the memo never
// hits and the compiled and exact tiers serve every call.

type driftSizes struct {
	data   datasets.Config
	setups int
	// A drift phase serves batches of batch calls until tailCalls calls
	// after the swap, or ends after maxCalls; phasesPerSecond times
	// --seconds is the number of phases.
	batch, tailCalls, maxCalls int
	phasesPerSecond            int
	// jitter is the relative feature perturbation of the call stream.
	jitter    float64
	loopIters int
}

func driftSizesFor(o *options) driftSizes {
	if o.tiny {
		return driftSizes{data: datasets.Config{Seed: o.seed, Scale: 0.02, TrainCount: 16, TestCount: 24, Parallelism: 1},
			setups: 1, batch: 96, tailCalls: 3072, maxCalls: 48000, phasesPerSecond: 5, jitter: 0.02, loopIters: 64}
	}
	return driftSizes{data: datasets.Config{Seed: o.seed, Scale: 0.05, Parallelism: 1},
		setups: 5, batch: 96, tailCalls: 3072, maxCalls: 48000, phasesPerSecond: 200, jitter: 0.02, loopIters: 20000}
}

// driftFn is one function under adaptation.
type driftFn struct {
	*paperFn
	eng *online.Engine[autotuner.Instance]
	// costs[r][u] is held-out input u's cost vector under rotation r (0 =
	// as labelled, 1 = rotated by driftShift slots); best[r][u] its minimum. ref is
	// a separate copy of costs the output check compares against.
	costs, ref [2][][]float64
	best       [2][]float64
	rot        int
	vidx       map[string]int
}

// rotate returns times shifted by k slots: variant j costs what variant
// j+k cost (the ensemble study's drift injection uses k = 1).
func rotate(times []float64, k int) []float64 {
	out := make([]float64, len(times))
	for j := range times {
		out[j] = times[(j+k)%len(times)]
	}
	return out
}

// driftShift returns the rotation that costs the stale model most: the
// shift with the highest mean relative regret for the labelled-best
// variant of the training instances (an infeasible pick counts 1). A
// weaker rotation can change which variant wins without changing what the
// calls cost; Histogram's variants, for one, come in pairs of near-equal
// cost, so a one-slot rotation costs it nothing and the engine rightly
// keeps the incumbent.
func driftShift(s *autotuner.Suite) int {
	shift, most := 1, -1.0
	for k := 1; k < len(s.VariantNames); k++ {
		var regret float64
		for _, in := range s.Train {
			if b, _ := in.Best(); b >= 0 {
				rot := rotate(in.Times, k)
				best := bestCost(rot)
				regret += min((rot[b]-best)/best, 1)
			}
		}
		if regret > most {
			shift, most = k, regret
		}
	}
	return shift
}

// phaseWindow is one drift phase's range of engine-observed calls.
type phaseWindow struct {
	f          int
	start, end int64
}

func runDrift(o *options, r *report) error {
	sz := driftSizesFor(o)
	t := newTracer(o)
	sets, err := setups(r, sz.setups, func(rep int) ([]*driftFn, error) {
		id := t.begin("setup")
		defer t.end(id)
		cfg := sz.data
		cfg.Seed = repSeed(o.seed, rep)
		suites, err := buildSuites(cfg, t)
		if err != nil {
			return nil, err
		}
		_, fns, err := tuneAll(suites, cfg.Seed, t)
		if err != nil {
			return nil, err
		}
		var out []*driftFn
		for i, f := range fns {
			pol := online.DefaultPolicy(cfg.Seed + int64(i))
			pol.Synchronous = true
			eng, err := online.Attach(f.cv, pol)
			if err != nil {
				closeEngines(out)
				return nil, err
			}
			d := &driftFn{paperFn: f, eng: eng, vidx: variantIndex(f.suite.VariantNames)}
			shift := driftShift(f.suite)
			for _, in := range f.heldOut {
				for rot, c := range [2][]float64{in.Times, rotate(in.Times, shift)} {
					d.costs[rot] = append(d.costs[rot], c)
					d.ref[rot] = append(d.ref[rot], append([]float64(nil), c...))
					d.best[rot] = append(d.best[rot], bestCost(c))
				}
			}
			out = append(out, d)
		}
		return out, nil
	})
	var fns []*driftFn // every set's functions
	for _, s := range sets {
		fns = append(fns, s...)
	}
	defer closeEngines(fns)
	if err != nil {
		return err
	}
	paper := make([]*paperFn, len(fns))
	for i, f := range fns {
		paper[i] = f.paperFn
	}

	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x6472696674)) // "drift"
	maxDim := 0
	for _, f := range fns {
		maxDim = max(maxDim, len(f.suite.FeatureNames))
	}
	// jittered fills in with a novel vector near held-out input u of f.
	featBuf := make([][]float64, sz.batch)
	for j := range featBuf {
		featBuf[j] = make([]float64, maxDim)
	}
	jittered := func(f *driftFn, u int, buf []float64) autotuner.Instance {
		base := f.heldOut[u].Features
		buf = buf[:len(base)]
		for k, x := range base {
			buf[k] = x * (1 + sz.jitter*(2*rng.Float64()-1))
		}
		return autotuner.Instance{Features: buf, Times: f.costs[f.rot][u]}
	}

	phases := sz.phasesPerSecond * o.seconds
	batchIn := make([]autotuner.Instance, sz.batch)
	batchU := make([]int, sz.batch)
	vals := make([]float64, sz.batch)
	served := make([]string, sz.batch)
	errs := make([]error, sz.batch)
	calls, adapt := newTimings(len(fns)), newTimings(len(fns))
	var batchMs, stallMs, tracedNs, untracedNs []float64
	var windows []phaseWindow
	var ratioSum float64
	var oracleCalls int64 // calls checked and counted in oracle_pct
	var unswapped int64   // phases that ended without a swap
	before := fnStats(paper)
	for p := 0; p < phases; p++ {
		fi := p % len(fns)
		f := fns[fi]
		if !o.freeze {
			f.rot ^= 1
		}
		if o.corrupt && p == 0 {
			for k := range f.ref[f.rot][0] {
				f.ref[f.rot][0][k] *= 2
			}
		}
		st0 := f.eng.Stats()
		swaps, retrains := st0.Swaps, st0.Retrains
		var sinceDrift, sinceDriftRaw float64 // ns
		swapped, swapBatch, bad := false, 0, ""
		for b := 0; b < sz.maxCalls/sz.batch && !(swapped && b >= swapBatch+sz.tailCalls/sz.batch); b++ {
			for j := range batchIn {
				batchU[j] = rng.IntN(len(f.heldOut))
				batchIn[j] = jittered(f, batchU[j], featBuf[j])
			}
			t.on = o.trace && b%2 == 0
			id := t.begin("core.Call.batch")
			u := startUnit()
			for j := range batchIn {
				vals[j], served[j], errs[j] = f.cv.Call(batchIn[j])
			}
			raw, ref := u.stop()
			t.end(id)
			ns := ref / float64(sz.batch)
			calls.add(fi, raw/float64(sz.batch), ns)
			batchMs = append(batchMs, ref/1e6)
			if t.on {
				tracedNs = append(tracedNs, ns)
			} else {
				untracedNs = append(untracedNs, ns)
			}
			for j := range batchIn {
				u := batchU[j]
				idx, ok := f.vidx[served[j]]
				switch {
				case errs[j] != nil:
					bad = fmt.Sprintf("call error: %v", errs[j])
				case !ok || !sameCost(vals[j], f.ref[f.rot][u][idx]):
					bad = fmt.Sprintf("input %d: %q returned %g, phase cost differs", u, served[j], vals[j])
				default:
					ratioSum += f.best[f.rot][u] / vals[j]
					oracleCalls++
				}
			}
			if !swapped {
				sinceDrift += ref
				sinceDriftRaw += raw
			}
			es := f.eng.Stats()
			if es.Retrains > retrains {
				retrains = es.Retrains
				stallMs = append(stallMs, ref/1e6)
			}
			if !swapped && es.Swaps > swaps {
				swapped, swapBatch = true, b+1
				adapt.add(fi, sinceDriftRaw/1e6, sinceDrift/1e6)
			}
		}
		end := f.eng.Stats()
		windows = append(windows, phaseWindow{fi, st0.Calls, end.Calls})
		if !swapped {
			// The phase ran to the cap: its whole duration is adaptation
			// time, so a change that stops swaps cannot shrink adapt_ms.
			unswapped++
			adapt.add(fi, sinceDriftRaw/1e6, sinceDrift/1e6)
		}
		r.attempted++
		switch {
		case bad != "":
			r.fail("phase %d (%s): %s", p, f.suite.Name, bad)
		case !swapped:
			r.miss("phase %d (%s): no swap in %d calls (%d retrains, %d rollbacks)", p, f.suite.Name,
				end.Calls-st0.Calls, end.Retrains-st0.Retrains, end.Rollbacks-st0.Rollbacks)
		}
	}
	measured := fnStats(paper).sub(before)
	t.on = o.trace
	if oracleCalls == 0 {
		return fmt.Errorf("no call served")
	}
	oracle := 100 * ratioSum / float64(oracleCalls)
	setTimings(r, "call_ns", calls)
	r.set("oracle_pct", oracle, int(oracleCalls))
	setTimings(r, "adapt_ms", adapt)

	setTiers(r, measured)
	var sampled, explored, retrains, swaps, rollbacks int64
	var events []string
	var detect, swapAt []float64
	for fi, f := range fns {
		es := f.eng.Stats()
		sampled += es.Sampled
		explored += es.Explored
		retrains += es.Retrains
		swaps += es.Swaps
		rollbacks += es.Rollbacks
		evs := f.eng.Events()
		for _, ev := range evs {
			events = append(events, f.suite.Name+" "+ev.String())
		}
		for _, w := range windows {
			if w.f != fi {
				continue
			}
			if c := firstEvent(evs, w, online.EventDrift); c >= 0 {
				detect = append(detect, float64(c))
			}
			if c := firstEvent(evs, w, online.EventSwap, online.EventBakeoffPromote); c >= 0 {
				swapAt = append(swapAt, float64(c))
			}
		}
	}
	r.counts["oracle_ppb"] = int64(oracle * 1e7)
	r.counts["attempted"] = int64(r.attempted)
	r.counts["failed"] = int64(r.failed)
	r.counts["online.sampled"] = sampled
	r.counts["online.explored"] = explored
	r.counts["online.retrains"] = retrains
	r.counts["online.swaps"] = swaps
	r.counts["online.rollbacks"] = rollbacks
	r.counts["online.phases_unswapped"] = unswapped
	r.counts["online.events"] = int64(len(events))
	r.counts["online.events_fnv32"] = hashLines(events)
	if !o.trace {
		return nil
	}

	r.set("online.explore_pct", pct(explored, sampled), int(sampled))
	r.set("online.retrains", float64(retrains), len(fns))
	r.set("online.swaps", float64(swaps), len(fns))
	r.set("online.rollbacks", float64(rollbacks), len(fns))
	r.set("online.swap_pct", pct(swaps, retrains), int(retrains))
	r.set("online.detect_calls_p50", percentile(detect, 0.5), len(detect))
	r.set("online.swap_calls_p50", percentile(swapAt, 0.5), len(swapAt))
	med := percentile(batchMs, 0.5)
	for i := range stallMs {
		stallMs[i] -= med
	}
	r.set("online.retrain_stall_ms_p50", percentile(stallMs, 0.5), len(stallMs))

	var targets []layerTarget
	var variantRuns int64
	for _, f := range fns {
		in := make([]autotuner.Instance, 0, 256)
		for k := 0; k < cap(in); k++ {
			u := rng.IntN(len(f.heldOut))
			in = append(in, jittered(f, u, make([]float64, len(f.suite.FeatureNames))))
		}
		model, _ := f.cx.Model(f.suite.Name) // the engine's latest swap
		targets = append(targets, layerTarget{name: f.suite.Name, cx: f.cx, cv: f.cv, model: model, inputs: in})
		variantRuns += int64((len(f.suite.Train) + len(f.suite.Test)) * len(f.suite.VariantNames))
	}
	if err := measureLayers(r, t, targets, sz.setups, sz.loopIters); err != nil {
		return err
	}
	setSetupLayers(r, t, paper, sz.setups, variantRuns)
	r.set("bench.trace_overhead_pct", overheadPct(tracedNs, untracedNs), len(batchMs))
	return t.write(spanPath(o))
}

// closeEngines stops the functions' online engines.
func closeEngines(fns []*driftFn) {
	for _, f := range fns {
		f.eng.Close()
	}
}

// firstEvent returns the engine-observed calls from the phase's start to
// the first event of one of the kinds inside the phase (-1 if none).
func firstEvent(evs []online.Event, w phaseWindow, kinds ...online.EventKind) int64 {
	for _, ev := range evs {
		if ev.Call <= w.start || ev.Call > w.end {
			continue
		}
		for _, k := range kinds {
			if ev.Kind == k {
				return ev.Call - w.start
			}
		}
	}
	return -1
}
