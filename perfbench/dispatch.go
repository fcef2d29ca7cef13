package main

import (
	"fmt"
	"math/rand/v2"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/ml"
)

// dispatch_hot: the paper's deployment path at its cheapest rung. Set-up
// is offline tuning of all five suites (so setup_s is tuning time), done
// for three independent corpus sets whose fifteen functions are all
// served; the measured phase is fixed-size batches of Call over a seeded
// stream drawn from a hot set of held-out inputs small enough to stay in
// the memo. Between batches each function's model is periodically
// reinstalled from its artifact, as a deployment picks up a new model
// file; adapt_ms times one function's update until each of its hot inputs
// has been served by the new model. One extra pass over every held-out
// input gives oracle_pct. No online engine, no daemon.

type dispatchSizes struct {
	data datasets.Config
	// setups is how many times set-up runs (setup_s is their median).
	setups int
	// hot is the hot-set size per function; stream the length of the
	// seeded call stream cycled through the batches.
	hot, stream int
	// batch is the calls per timed batch; batchesPerSecond times --seconds
	// is the number of measured batches.
	batch, batchesPerSecond int
	// reinstallEvery is the batches between two model updates.
	reinstallEvery int
	loopIters      int
}

func dispatchSizesFor(o *options) dispatchSizes {
	if o.tiny {
		return dispatchSizes{data: datasets.Config{Seed: o.seed, Scale: 0.02, TrainCount: 12, TestCount: 16, Parallelism: 1},
			setups: 1, hot: 4, stream: 64, batch: 16, batchesPerSecond: 4, reinstallEvery: 2, loopIters: 64}
	}
	return dispatchSizes{data: datasets.Config{Seed: o.seed, Scale: 0.1, Parallelism: 1},
		setups: 3, hot: 64, stream: 8192, batch: 1024, batchesPerSecond: 2500, reinstallEvery: 50, loopIters: 100000}
}

// hotCall is one entry of the call stream: function f, hot input i.
type hotCall struct{ f, i int }

func runDispatch(o *options, r *report) error {
	sz := dispatchSizesFor(o)
	t := newTracer(o)
	sets, err := setups(r, sz.setups, func(rep int) ([]*paperFn, error) {
		id := t.begin("setup")
		defer t.end(id)
		cfg := sz.data
		cfg.Seed = repSeed(o.seed, rep)
		suites, err := buildSuites(cfg, t)
		if err != nil {
			return nil, err
		}
		_, fns, err := tuneAll(suites, cfg.Seed, t)
		return fns, err
	})
	if err != nil {
		return err
	}
	var fns []*paperFn // every set's functions
	for _, s := range sets {
		fns = append(fns, s...)
	}
	arts := make([][]byte, len(fns))
	etags := make([]string, len(fns))
	for f, fn := range fns {
		if arts[f], etags[f], err = ml.EncodeArtifact(fn.model); err != nil {
			return err
		}
	}

	// References: the served variant for every held-out input.
	expected := make([][]int, len(fns))
	vidx := make([]map[string]int, len(fns))
	names := make([]string, len(fns))
	for f, fn := range fns {
		names[f] = fn.suite.Name
		vidx[f] = variantIndex(fn.suite.VariantNames)
		expected[f] = make([]int, len(fn.heldOut))
		for i, in := range fn.heldOut {
			expected[f][i] = expectedVariant(fn.model, fn.suite, in.Features, in.Times)
		}
	}
	if o.corrupt {
		fn := fns[0]
		expected[0][0] = (expected[0][0] + 1) % len(fn.suite.VariantNames)
	}

	// The hot set (a seeded sample of held-out inputs per function) and
	// the seeded call stream over it.
	rng := rand.New(rand.NewPCG(uint64(o.seed), 0x686f74)) // "hot"
	hot := make([][]int, len(fns))                         // indices into heldOut
	for f, fn := range fns {
		perm := rng.Perm(len(fn.heldOut))
		hot[f] = perm[:min(sz.hot, len(perm))]
	}
	stream := make([]hotCall, sz.stream)
	for k := range stream {
		f := rng.IntN(len(fns))
		stream[k] = hotCall{f, hot[f][rng.IntN(len(hot[f]))]}
	}

	// check verifies one Call outcome against the reference.
	check := func(f, i int, v float64, name string, err error) {
		r.attempted++
		in := fns[f].heldOut[i]
		idx, ok := vidx[f][name]
		switch {
		case err != nil:
			r.fail("%s input %d: %v", names[f], i, err)
		case !ok || idx != expected[f][i]:
			r.fail("%s input %d: served %q, reference variant %d", names[f], i, name, expected[f][i])
		case !sameCost(v, in.Times[idx]):
			r.fail("%s input %d: returned %g, cost of %q is %g", names[f], i, v, name, in.Times[idx])
		}
	}

	// reinstall updates each function in turn, one timed unit each: it
	// decodes the function's artifact, installs it, and serves each of its
	// hot inputs once, so the new model (and a refilled memo) serves the
	// stream.
	adapt := newTimings(len(fns))
	reVals := make([]float64, sz.hot)
	reServed := make([]string, sz.hot)
	reErrs := make([]error, sz.hot)
	reinstall := func() error {
		for f, fn := range fns {
			u := startUnit()
			m, err := ml.DecodeArtifact(arts[f], etags[f])
			if err == nil {
				err = fn.cx.SetModel(fn.suite.Name, m)
			}
			for k, i := range hot[f] {
				reVals[k], reServed[k], reErrs[k] = fn.cv.Call(fn.heldOut[i])
			}
			raw, ref := u.stop()
			if err != nil {
				return err
			}
			adapt.add(f, raw/1e6, ref/1e6)
			for k, i := range hot[f] {
				check(f, i, reVals[k], reServed[k], reErrs[k])
			}
		}
		return nil
	}

	// Warm the memo and the pools with one untimed pass over the stream.
	for _, c := range stream {
		v, name, err := fns[c.f].cv.Call(fns[c.f].heldOut[c.i])
		check(c.f, c.i, v, name, err)
	}

	batches := sz.batchesPerSecond * o.seconds
	vals := make([]float64, sz.batch)
	served := make([]string, sz.batch)
	errs := make([]error, sz.batch)
	calls := newTimings(1)
	var tracedNs, untracedNs []float64
	before := fnStats(fns)
	pos := 0
	for b := 0; b < batches; b++ {
		if b > 0 && b%sz.reinstallEvery == 0 {
			t.on = o.trace
			id := t.begin("dispatch.reinstall")
			err := reinstall()
			t.end(id)
			if err != nil {
				return err
			}
		}
		t.on = o.trace && b%2 == 0
		id := t.begin("core.Call.batch")
		u := startUnit()
		for j := range vals {
			c := stream[(pos+j)%len(stream)]
			vals[j], served[j], errs[j] = fns[c.f].cv.Call(fns[c.f].heldOut[c.i])
		}
		raw, ref := u.stop()
		t.end(id)
		ns := ref / float64(sz.batch)
		calls.add(0, raw/float64(sz.batch), ns)
		if t.on {
			tracedNs = append(tracedNs, ns)
		} else {
			untracedNs = append(untracedNs, ns)
		}
		for j := range vals {
			c := stream[(pos+j)%len(stream)]
			check(c.f, c.i, vals[j], served[j], errs[j])
		}
		pos = (pos + sz.batch) % len(stream)
	}
	measured := fnStats(fns).sub(before)
	t.on = o.trace
	setTimings(r, "call_ns", calls)
	setTimings(r, "adapt_ms", adapt)

	// The oracle pass: every held-out input once.
	var ratioSum float64
	var served1 int
	for f, fn := range fns {
		for i, in := range fn.heldOut {
			v, name, err := fn.cv.Call(in)
			check(f, i, v, name, err)
			if err == nil {
				ratioSum += bestCost(in.Times) / v
				served1++
			}
		}
	}
	if served1 == 0 {
		return fmt.Errorf("no held-out input served")
	}
	oracle := 100 * ratioSum / float64(served1)
	r.set("oracle_pct", oracle, served1)
	setTiers(r, measured)
	r.counts["oracle_ppb"] = int64(oracle * 1e7)
	r.counts["attempted"] = int64(r.attempted)
	r.counts["failed"] = int64(r.failed)
	if !o.trace {
		return nil
	}

	var targets []layerTarget
	var variantRuns int64
	for f, fn := range fns {
		in := make([]autotuner.Instance, len(hot[f]))
		for k, i := range hot[f] {
			in[k] = fn.heldOut[i]
		}
		targets = append(targets, layerTarget{name: fn.suite.Name, cx: fn.cx, cv: fn.cv, model: fn.model, inputs: in})
		variantRuns += int64((len(fn.suite.Train) + len(fn.suite.Test)) * len(fn.suite.VariantNames))
	}
	if err := measureLayers(r, t, targets, sz.setups, sz.loopIters); err != nil {
		return err
	}
	setSetupLayers(r, t, fns, sz.setups, variantRuns)
	r.set("bench.trace_overhead_pct", overheadPct(tracedNs, untracedNs), batches)
	return t.write(spanPath(o))
}

// setSetupLayers reports the offline-tuning per-layer metrics from the
// set-up spans, per set-up repetition: fns and variantRuns cover all of
// them.
func setSetupLayers(r *report, t *tracer, fns []*paperFn, reps int, variantRuns int64) {
	for _, b := range datasets.Builders() {
		d := t.durations("datasets." + b.Name)
		r.set(suiteLayer(b.Name), percentile(d, 0.5)/1e9, len(d))
	}
	r.set("datasets.variant_runs", float64(variantRuns)/float64(reps), len(fns))
	grid := 0
	for _, f := range fns {
		grid += f.grid
	}
	r.set("autotuner.train_s", t.sum("autotuner.Train")/float64(reps)/1e9, len(fns))
	r.set("autotuner.grid_points", float64(grid)/float64(reps), len(fns))
	r.set("ml.distill_s", t.sum("ml.Distill")/float64(reps)/1e9, len(fns))
}
