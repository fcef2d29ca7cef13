package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/datasets"
	"nitro/internal/gpusim"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/online"
	"nitro/internal/server"
	"nitro/internal/server/client"
)

// fleet_rollout: the control plane end to end over loopback HTTP. One
// daemon (one tenant, one tuning worker, seeded trace ids) serves one
// paper function to two seeded clients, each with its own context and
// poller. Every episode serves calls, pushes healthy observations and
// polls with nothing to change; then the costs rotate, drifted pushes run
// until the push response reports retraining, the staged canary is
// awaited, and adopt → serve → report rounds run until both pollers serve
// the promoted version. Set-up runs eleven times on independent corpora;
// the last fleet is measured.

const (
	fleetTenant = "bench"
	fleetToken  = "bench-token"
	fleetFn     = "bfs"
	probeFn     = "probe"
	// slowCost stands in for +Inf in pushed observations (JSON cannot
	// carry Inf); it is above every real cost, so it never labels a
	// training instance.
	slowCost = 1e9
)

type fleetSizes struct {
	data   datasets.Config
	setups int
	// episodesPerSecond times --seconds is the number of episodes.
	episodesPerSecond int
	// serve is the steady calls per member and episode, in batches of batch.
	serve, batch int
	// polls is the no-change polls per member and episode, timed together.
	polls int
	// push is the samples per observation push; window the drift
	// detector's window (a multiple of push). With 32, the 64-sample
	// retrain corpus now and then gave a model whose healthy windows
	// crossed the detector's mismatch threshold, so a steady phase
	// reported drift.
	push, window int
	// canaryCalls is the calls per member and canary round; minSamples the
	// fleet-wide challenger calls a verdict needs. At canary fraction 0.5
	// one member's share stays 16 standard deviations below minSamples and
	// both members' share 11 above, so every episode takes one round.
	canaryCalls, minSamples int
	loopIters               int
}

func fleetSizesFor(o *options) fleetSizes {
	sz := fleetSizes{data: datasets.Config{Seed: o.seed, Scale: 0.1, Parallelism: 1},
		setups: 11, episodesPerSecond: 100, serve: 512, batch: 256, polls: 4,
		push: 16, window: 64, canaryCalls: 1024, minSamples: 768, loopIters: 20000}
	if o.tiny {
		sz.data = datasets.Config{Seed: o.seed, Scale: 0.02, TrainCount: 16, TestCount: 24, Parallelism: 1}
		sz.setups, sz.episodesPerSecond, sz.loopIters = 1, 3, 64
	}
	return sz
}

// member is one deployed process: a registry client, a context serving
// the function, and the poller that keeps the context current.
type member struct {
	c  *client.Client
	tr *http.Transport
	cx *core.Context
	cv *core.CodeVariant[autotuner.Instance]
	p  *client.Poller
}

// fleet is one set-up: the daemon, its data directory and two members.
type fleet struct {
	d     *server.Daemon
	dir   string
	suite *autotuner.Suite
	ms    [2]*member
}

func (f *fleet) close() {
	for _, m := range f.ms {
		if m != nil {
			m.tr.CloseIdleConnections()
		}
	}
	if f.d != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		f.d.Shutdown(ctx) //nolint:errcheck // teardown: the data directory is removed next
		cancel()
	}
	os.RemoveAll(f.dir) //nolint:errcheck // best-effort cleanup of the run's registry data
}

// startFleet builds a daemon, registers the function, pushes and tunes a
// seed corpus, and has both pollers install the first model.
func startFleet(o *options, sz fleetSizes, rep int, t *tracer) (*fleet, error) {
	ctx := context.Background()
	seed := repSeed(o.seed, rep)
	f := &fleet{dir: filepath.Join(o.out, fmt.Sprintf("fleet-%d-%d", os.Getpid(), rep))}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	if err := os.RemoveAll(f.dir); err != nil {
		return nil, err
	}
	cfg := server.Config{
		Addr: "127.0.0.1:0",
		Registry: server.RegistryConfig{
			Tenants: []server.TenantConfig{{Name: fleetTenant, Token: fleetToken}},
			DataDir: f.dir,
			Workers: 1,
			Train:   autotuner.TrainOptions{Seed: seed, Parallelism: 1},
			Drift:   online.Policy{Window: sz.window},
			Canary:  server.CanaryPolicy{Fraction: 0.5, MinSamples: int64(sz.minSamples)},
			// The retrain corpus is exactly the two drifted windows.
			ReservoirSize:     2 * sz.window,
			MinRetrainSamples: 2 * sz.window,
		},
		Obs: server.ObsConfig{TraceSeed: seed},
	}
	d, err := server.NewDaemon(cfg)
	if err != nil {
		return nil, err
	}
	f.d = d
	if err := d.Start(cfg); err != nil {
		return nil, err
	}
	data := sz.data
	data.Seed = seed
	id := t.begin("datasets.BFS")
	f.suite, err = datasets.BFS(data, gpusim.Fermi())
	t.end(id)
	if err != nil {
		return nil, err
	}
	for i := range f.ms {
		tr := &http.Transport{MaxIdleConnsPerHost: 1}
		c, err := client.New(client.Config{BaseURL: "http://" + d.Addr(), Token: fleetToken,
			Seed: seed*2 + int64(i) + 1, HTTPClient: &http.Client{Transport: tr, Timeout: 10 * time.Second}})
		if err != nil {
			return nil, err
		}
		cx := core.NewContext()
		cv, err := autotuner.ReplayVariant(cx, f.suite, core.DefaultPolicy(fleetFn))
		if err != nil {
			return nil, err
		}
		f.ms[i] = &member{c: c, tr: tr, cx: cx, cv: cv, p: client.NewPoller(c, cx, fleetFn)}
	}
	s := f.suite
	c := f.ms[0].c
	if err := c.RegisterFunction(ctx, server.FunctionSpec{Name: fleetFn, Features: s.FeatureNames,
		Variants: s.VariantNames, Default: s.DefaultVariant}); err != nil {
		return nil, err
	}
	corpus := make([]online.RemoteSample, 0, len(s.Train))
	for _, in := range s.Train {
		corpus = append(corpus, online.RemoteSample{Features: in.Features, Times: finite(in.Times), Predicted: -1})
	}
	if _, err := c.PushObservations(ctx, fleetFn, corpus); err != nil {
		return nil, err
	}
	job, err := c.Tune(ctx, fleetFn)
	if err != nil {
		return nil, err
	}
	if err := waitInstalled(d.Registry(), fleetFn, job); err != nil {
		return nil, err
	}
	for _, m := range f.ms {
		if res, err := m.p.PollOnce(ctx); err != nil || !res.InstalledStable {
			return nil, fmt.Errorf("initial install: %+v, %v", res, err)
		}
	}
	ok = true
	return f, nil
}

// finite maps +Inf costs to slowCost for the wire.
func finite(times []float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = t
		if math.IsInf(t, 1) {
			out[i] = slowCost
		}
	}
	return out
}

// waitFor polls cond about every 60µs, far below a tenth of an episode,
// for at most ten seconds. It sleeps in nanosleep directly: time.Sleep for
// a few microseconds takes about a millisecond on Linux, which would
// quantize every wait, and spinning would take a processor from the
// daemon's tuning worker.
func waitFor(cond func() (bool, error)) error {
	deadline := time.Now().Add(10 * time.Second)
	pause := syscall.Timespec{Nsec: 20_000}
	for {
		done, err := cond()
		if err != nil || done {
			return err
		}
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		syscall.Nanosleep(&pause, nil) //nolint:errcheck // an interrupted pause just polls sooner
	}
}

// waitInstalled waits until tune job has installed a stable version of fn.
// The job reports done before the registry installs its model, so the
// wait watches the deployment.
func waitInstalled(reg *server.Registry, fn, job string) error {
	return waitFor(func() (bool, error) {
		st, err := reg.Job(fleetTenant, job)
		if err == nil && st.State == autotuner.JobFailed {
			err = fmt.Errorf("tune job %s failed: %s", job, st.Error)
		}
		dep, derr := reg.Deployment(fleetTenant, fn)
		return dep.Stable != 0, errors.Join(err, derr)
	})
}

// registryCounter sums every series of a registry counter.
func registryCounter(reg *server.Registry, name string) int64 {
	var v float64
	reg.Collector()(func(m obs.Metric) {
		if m.Name == name {
			v += m.Value
		}
	})
	return int64(v)
}

var fleetCounters = []string{
	"nitro_server_journal_appends_total", "nitro_server_requests_total",
	"nitro_server_artifact_pulls_total", "nitro_server_artifact_pulls_not_modified_total",
	"nitro_server_shed_total", "nitro_server_canaries_rolled_back_total",
	"nitro_server_canaries_promoted_total",
}

func counterSnapshot(reg *server.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, n := range fleetCounters {
		out[n] = registryCounter(reg, n)
	}
	return out
}

// fleetRun is the measured state of one fleet_rollout run.
type fleetRun struct {
	sz    fleetSizes
	t     *tracer
	r     *report
	f     *fleet
	rng   *rand.Rand
	shift int
	// costs[k][u] is held-out input u's cost vector under rotation k, ref
	// a separate copy for the output checks, wire the pushed form.
	costs, ref, wire [][][]float64
	best             [][]float64
	vidx             map[string]int

	calls, adapt                                *timings
	pollUs, pushUs, jobMs, tracedMs, untracedMs []float64
	ratioSum                                    float64
	oracleCalls                                 int64
	tiers                                       tierCounts
	rounds                                      int64
	// adapting is set from an episode's first drifted call until both
	// members serve the promoted version; the timed steps meanwhile add
	// up to adaptRaw and adaptRef (ns). episodeRef adds up every timed
	// step of the episode.
	adapting                       bool
	adaptRaw, adaptRef, episodeRef float64
}

// timed runs step as one unit and returns its raw and reference
// nanoseconds, adding them to the episode's totals.
func (fr *fleetRun) timed(step func()) (raw, ref float64) {
	u := startUnit()
	step()
	raw, ref = u.stop()
	fr.episodeRef += ref
	if fr.adapting {
		fr.adaptRaw += raw
		fr.adaptRef += ref
	}
	return raw, ref
}

func runFleet(o *options, r *report) error {
	// The daemon, its tuning worker and both clients share one processor,
	// pinned, so the reference loop brackets work on the core it runs on
	// (see pinToOneCPU). The loop is closed, so one goroutine is runnable
	// at a time and a second processor would not shorten an episode.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	unpin, err := pinToOneCPU()
	if err != nil {
		return fmt.Errorf("pin to one CPU: %w", err)
	}
	defer unpin()
	sz := fleetSizesFor(o)
	t := newTracer(o)
	fleets, err := setups(r, sz.setups, func(rep int) (*fleet, error) {
		id := t.begin("setup")
		defer t.end(id)
		return startFleet(o, sz, rep, t)
	})
	if err != nil {
		for _, f := range fleets {
			f.close()
		}
		return err
	}
	for _, f := range fleets[:len(fleets)-1] {
		f.close()
	}
	f := fleets[len(fleets)-1] // the measured fleet
	defer f.close()

	fr := &fleetRun{sz: sz, t: t, r: r, f: f, shift: driftShift(f.suite),
		rng:   rand.New(rand.NewPCG(uint64(o.seed), 0x666c656574)), // "fleet"
		vidx:  variantIndex(f.suite.VariantNames),
		calls: newTimings(1), adapt: newTimings(1)}
	held := autotuner.FeasibleTest(f.suite)
	nv := len(f.suite.VariantNames)
	fr.costs = make([][][]float64, nv)
	fr.ref = make([][][]float64, nv)
	fr.wire = make([][][]float64, nv)
	fr.best = make([][]float64, nv)
	for k := 0; k < nv; k++ {
		for _, in := range held {
			c := rotate(in.Times, k)
			fr.costs[k] = append(fr.costs[k], c)
			fr.ref[k] = append(fr.ref[k], append([]float64(nil), c...))
			fr.wire[k] = append(fr.wire[k], finite(c))
			fr.best[k] = append(fr.best[k], bestCost(c))
		}
	}
	if o.corrupt {
		for k := range fr.ref[0][0] {
			fr.ref[0][0][k] *= 2
		}
	}

	reg := f.d.Registry()
	before := counterSnapshot(reg)
	episodes := sz.episodesPerSecond * o.seconds
	for e := 0; e < episodes; e++ {
		t.on = o.trace && e%2 == 0
		fr.episodeRef = 0
		id := t.begin("fleet.episode")
		err := fr.episode(e, held)
		t.end(id)
		ms := fr.episodeRef / 1e6
		if t.on {
			fr.tracedMs = append(fr.tracedMs, ms)
		} else {
			fr.untracedMs = append(fr.untracedMs, ms)
		}
		r.attempted++
		if err != nil {
			r.fail("episode %d: %v", e, err)
		}
	}
	t.on = o.trace
	after := counterSnapshot(reg)
	if fr.oracleCalls == 0 {
		return fmt.Errorf("no call served")
	}
	oracle := 100 * fr.ratioSum / float64(fr.oracleCalls)
	setTimings(r, "call_ns", fr.calls)
	r.set("oracle_pct", oracle, int(fr.oracleCalls))
	setTimings(r, "adapt_ms", fr.adapt)
	setTiers(r, fr.tiers)
	delta := func(n string) int64 { return after[n] - before[n] }
	r.counts["oracle_ppb"] = int64(oracle * 1e7)
	r.counts["attempted"] = int64(r.attempted)
	r.counts["failed"] = int64(r.failed)
	r.counts["server.journal_appends"] = delta("nitro_server_journal_appends_total")
	r.counts["server.requests"] = delta("nitro_server_requests_total")
	r.counts["server.promoted"] = delta("nitro_server_canaries_promoted_total")
	r.counts["client.report_rounds"] = fr.rounds
	if !o.trace {
		return nil
	}

	n := float64(episodes)
	r.set("client.poll_us_p50", percentile(fr.pollUs, 0.5), len(fr.pollUs))
	r.set("client.poll_us_p90", percentile(fr.pollUs, 0.9), len(fr.pollUs))
	r.set("client.push_us_p50", percentile(fr.pushUs, 0.5), len(fr.pushUs))
	r.set("client.push_us_p90", percentile(fr.pushUs, 0.9), len(fr.pushUs))
	r.set("client.report_rounds", float64(fr.rounds)/n, episodes)
	var pollFailures int64
	for _, m := range f.ms {
		pollFailures += m.p.Stats().Failures
	}
	r.set("client.poll_failures", float64(pollFailures), len(f.ms))
	r.set("autotuner.job_ms_p50", percentile(fr.jobMs, 0.5), len(fr.jobMs))
	st, err := reg.Status(fleetTenant, fleetFn)
	if err != nil {
		return err
	}
	r.set("autotuner.job_rows", float64(st.Reservoir), 1)
	r.set("server.journal_appends_per_episode", float64(delta("nitro_server_journal_appends_total"))/n, episodes)
	r.set("server.requests_per_episode", float64(delta("nitro_server_requests_total"))/n, episodes)
	r.set("server.pulls_304_pct", pct(delta("nitro_server_artifact_pulls_not_modified_total"),
		delta("nitro_server_artifact_pulls_total")), int(delta("nitro_server_artifact_pulls_total")))
	r.set("server.shed", float64(delta("nitro_server_shed_total")), episodes)
	r.set("server.rolled_back", float64(delta("nitro_server_canaries_rolled_back_total")), episodes)
	d := t.durations("datasets.BFS")
	r.set("datasets.bfs_s", percentile(d, 0.5)/1e9, len(d))
	r.set("datasets.variant_runs", float64((len(f.suite.Train)+len(f.suite.Test))*nv), 1)
	r.set("bench.trace_overhead_pct", overheadPct(fr.tracedMs, fr.untracedMs), episodes)

	m := f.ms[0]
	model, _ := m.cx.Model(fleetFn)
	rot := (episodes * fr.shift) % nv
	in := make([]autotuner.Instance, len(held))
	for u := range held {
		in[u] = autotuner.Instance{Features: held[u].Features, Times: fr.costs[rot][u]}
	}
	if err := measureLayers(r, t, []layerTarget{{name: fleetFn, cx: m.cx, cv: m.cv, model: model, inputs: in}}, 1, sz.loopIters); err != nil {
		return err
	}
	if err := fr.probeLayers(held); err != nil {
		return err
	}
	return t.write(spanPath(o))
}

// serve runs n calls on member m under rotation k in batches of
// sz.batch, checks each against the reference, and returns one pushable
// sample per call. Calls served with no canary live (timed true) feed
// call_ns, oracle_pct and the tier counts.
func (fr *fleetRun) serve(m *member, held []autotuner.Instance, k, n int, timed bool) ([]online.RemoteSample, error) {
	sz := fr.sz
	samples := make([]online.RemoteSample, 0, n)
	in := make([]autotuner.Instance, sz.batch)
	us := make([]int, sz.batch)
	vals := make([]float64, sz.batch)
	served := make([]string, sz.batch)
	errs := make([]error, sz.batch)
	var bad error
	for done := 0; done < n; done += sz.batch {
		b := min(sz.batch, n-done)
		for j := 0; j < b; j++ {
			us[j] = fr.rng.IntN(len(held))
			in[j] = autotuner.Instance{Features: held[us[j]].Features, Times: fr.costs[k][us[j]]}
		}
		statsBefore := statsOf(m.cx, fleetFn)
		id := fr.t.begin("core.Call.batch")
		raw, ref := fr.timed(func() {
			for j := 0; j < b; j++ {
				vals[j], served[j], errs[j] = m.cv.Call(in[j])
			}
		})
		fr.t.end(id)
		if timed {
			if b == sz.batch {
				fr.calls.add(0, raw/float64(b), ref/float64(b))
			}
			fr.tiers = fr.tiers.add(m.cx.Stats(fleetFn)).sub(statsBefore)
		}
		for j := 0; j < b; j++ {
			u := us[j]
			idx, ok := fr.vidx[served[j]]
			switch {
			case errs[j] != nil:
				bad = errs[j]
				continue
			case !ok || !sameCost(vals[j], fr.ref[k][u][idx]):
				bad = fmt.Errorf("input %d: %q returned %g, cost table differs", u, served[j], vals[j])
				continue
			}
			if timed {
				fr.ratioSum += fr.best[k][u] / vals[j]
				fr.oracleCalls++
			}
			samples = append(samples, online.RemoteSample{Features: held[u].Features, Times: fr.wire[k][u], Predicted: idx})
		}
	}
	return samples, bad
}

// push sends one fixed-size batch of samples from member m and returns
// the fleet detector's state after ingestion.
func (fr *fleetRun) push(m *member, samples []online.RemoteSample) (string, error) {
	var state string
	var err error
	id := fr.t.begin("client.PushObservations")
	_, ref := fr.timed(func() {
		var st online.FleetStats
		st, err = m.c.PushObservations(context.Background(), fleetFn, samples)
		state = st.State
	})
	fr.t.end(id)
	fr.pushUs = append(fr.pushUs, ref/1e3)
	return state, err
}

// poll runs one PollOnce on member m under a span.
func (fr *fleetRun) poll(m *member, span string) (client.PollResult, error) {
	var res client.PollResult
	var err error
	id := fr.t.begin(span)
	fr.timed(func() { res, err = m.p.PollOnce(context.Background()) })
	fr.t.end(id)
	return res, err
}

// episode runs one steady → drift → canary → promote cycle.
func (fr *fleetRun) episode(e int, held []autotuner.Instance) error {
	sz, f := fr.sz, fr.f
	nv := len(f.suite.VariantNames)
	reg := f.d.Registry()
	shed0 := registryCounter(reg, "nitro_server_shed_total")
	rolled0 := registryCounter(reg, "nitro_server_canaries_rolled_back_total")
	k := (e * fr.shift) % nv

	// Steady: serve, poll with nothing to change, push healthy windows.
	var healthy [2][]online.RemoteSample
	for i, m := range f.ms {
		s, err := fr.serve(m, held, k, sz.serve, true)
		if err != nil {
			return err
		}
		healthy[i] = s
	}
	res := make([]client.PollResult, sz.polls)
	errs := make([]error, sz.polls)
	for _, m := range f.ms {
		id := fr.t.begin("client.PollOnce.batch")
		_, ref := fr.timed(func() {
			for p := range res {
				res[p], errs[p] = m.p.PollOnce(context.Background())
			}
		})
		fr.t.end(id)
		fr.pollUs = append(fr.pollUs, ref/1e3/float64(sz.polls))
		for p := range res {
			if err := errs[p]; err != nil {
				return err
			}
			if res[p].InstalledStable || res[p].StartedCanary || res[p].Decision != "" {
				return fmt.Errorf("steady poll changed state: %+v", res[p])
			}
		}
	}
	for w := 0; w < 2*sz.window/sz.push; w++ {
		i := w % 2
		batch := healthy[i][(w/2)*sz.push : (w/2+1)*sz.push]
		state, err := fr.push(f.ms[i], batch)
		if err != nil {
			return err
		}
		if state != online.StateHealthy.String() {
			return fmt.Errorf("healthy push left the detector %s", state)
		}
	}

	// Drift: rotate the costs; drifted pushes until retraining starts.
	k2 := (k + fr.shift) % nv
	fr.adapting, fr.adaptRaw, fr.adaptRef = true, 0, 0
	defer func() { fr.adapting = false }()
	retraining := false
	for w := 0; w < 8*sz.window/sz.push && !retraining; w++ {
		m := f.ms[w%2]
		s, err := fr.serve(m, held, k2, sz.push, true)
		if err != nil {
			return err
		}
		state, err := fr.push(m, s)
		if err != nil {
			return err
		}
		retraining = state == online.StateRetraining.String()
	}
	if !retraining {
		return errors.New("drifted pushes never started a retrain")
	}
	id := fr.t.begin("autotuner.JobQueue.wait")
	var canary int
	var err error
	_, jobRef := fr.timed(func() {
		err = waitFor(func() (bool, error) {
			dep, err := reg.Deployment(fleetTenant, fleetFn)
			if dep.Canary != nil {
				canary = dep.Canary.Version
			}
			return canary != 0, err
		})
	})
	fr.t.end(id)
	if err != nil {
		return fmt.Errorf("waiting for the canary: %w", err)
	}
	fr.jobMs = append(fr.jobMs, jobRef/1e6)

	// Canary: adopt, then serve → report rounds until both members run
	// the promoted version.
	for _, m := range f.ms {
		res, err := fr.poll(m, "client.PollOnce.adopt")
		if err != nil {
			return err
		}
		if !res.StartedCanary || res.CanaryVersion != canary {
			return fmt.Errorf("adopt poll: %+v, want canary v%d", res, canary)
		}
	}
	promoted := false
	for round := 0; round < 8 && !promoted; round++ {
		fr.rounds++
		for _, m := range f.ms {
			if _, err := fr.serve(m, held, k2, sz.canaryCalls, false); err != nil {
				return err
			}
		}
		for _, m := range f.ms {
			res, err := fr.poll(m, "client.PollOnce.report")
			if err != nil {
				return err
			}
			switch res.Decision {
			case server.DecisionPromoted:
				promoted = true
			case server.DecisionRolledBack:
				return fmt.Errorf("canary v%d rolled back", canary)
			}
		}
	}
	if !promoted {
		return fmt.Errorf("canary v%d never promoted", canary)
	}
	for _, m := range f.ms {
		if m.p.StableVersion() != canary {
			if _, err := fr.poll(m, "client.PollOnce.settle"); err != nil {
				return err
			}
		}
	}
	fr.adapt.add(0, fr.adaptRaw/1e6, fr.adaptRef/1e6)
	return fr.checkConverged(shed0, rolled0)
}

// checkConverged verifies the episode's end state: every member runs the
// registry's stable version, byte for byte, with no canary, and nothing
// was shed or rolled back.
func (fr *fleetRun) checkConverged(shed0, rolled0 int64) error {
	reg := fr.f.d.Registry()
	dep, err := reg.Deployment(fleetTenant, fleetFn)
	if err != nil {
		return err
	}
	if n := registryCounter(reg, "nitro_server_shed_total") - shed0; n > 0 {
		return fmt.Errorf("%d requests shed", n)
	}
	if n := registryCounter(reg, "nitro_server_canaries_rolled_back_total") - rolled0; n > 0 {
		return fmt.Errorf("%d canaries rolled back", n)
	}
	for i, m := range fr.f.ms {
		if v := m.p.StableVersion(); v != dep.Stable {
			return fmt.Errorf("member %d serves v%d, registry stable is v%d", i, v, dep.Stable)
		}
		if m.cx.CanaryStats(fleetFn).Active {
			return fmt.Errorf("member %d still serves a canary", i)
		}
		model, ok := m.cx.Model(fleetFn)
		if !ok {
			return fmt.Errorf("member %d has no model", i)
		}
		_, etag, err := ml.EncodeArtifact(model)
		if err != nil {
			return err
		}
		if etag != dep.StableETag {
			return fmt.Errorf("member %d model etag %s, registry stable etag %s", i, etag, dep.StableETag)
		}
	}
	return nil
}

// probeLayers times the registry's in-process entry points and the
// client's pull on a separate probe function, after the measured
// episodes, so the probes cannot disturb them.
func (fr *fleetRun) probeLayers(held []autotuner.Instance) error {
	ctx := context.Background()
	s, t, r := fr.f.suite, fr.t, fr.r
	reg := fr.f.d.Registry()
	n := max(fr.sz.loopIters/200, 8)
	if err := reg.RegisterFunction(ctx, fleetTenant, server.FunctionSpec{Name: probeFn,
		Features: s.FeatureNames, Variants: s.VariantNames, Default: s.DefaultVariant}); err != nil {
		return err
	}
	samples := make([]online.RemoteSample, 0, fr.sz.push)
	for u := 0; len(samples) < fr.sz.push; u++ {
		in := held[u%len(held)]
		best, _ := in.Best()
		samples = append(samples, online.RemoteSample{Features: in.Features, Times: finite(in.Times), Predicted: best})
	}
	if _, err := reg.PushObservations(ctx, fleetTenant, probeFn, samples); err != nil {
		return err
	}
	job, err := reg.Tune(ctx, fleetTenant, probeFn)
	if err != nil {
		return err
	}
	if err := waitInstalled(reg, probeFn, job); err != nil {
		return err
	}
	data, _, _, err := reg.Artifact(fleetTenant, probeFn, 1)
	if err != nil {
		return err
	}
	if _, err := reg.PushModel(ctx, fleetTenant, probeFn, data, ""); err != nil { // stages a canary
		return err
	}
	var pushErr, depErr, repErr, pullErr error
	push := timeEach(t, "server.Registry.PushObservations", n, func(int) {
		if _, err := reg.PushObservations(ctx, fleetTenant, probeFn, samples); err != nil {
			pushErr = err
		}
	})
	dep := timeEach(t, "server.Registry.Deployment", n, func(int) {
		if _, err := reg.Deployment(fleetTenant, probeFn); err != nil {
			depErr = err
		}
	})
	reports := min(n, fr.sz.minSamples-1) // every report stays below the verdict
	rep := timeEach(t, "server.Registry.ReportCanary", reports, func(i int) {
		if _, _, err := reg.ReportCanary(ctx, fleetTenant, probeFn, 2, "probe", int64(i+1), 0); err != nil {
			repErr = err
		}
	})
	pull := timeEach(t, "client.PullModel", n, func(int) {
		if _, err := fr.f.ms[0].c.PullModel(ctx, fleetFn, 0, ""); err != nil {
			pullErr = err
		}
	})
	if err := errors.Join(pushErr, depErr, repErr, pullErr); err != nil {
		return err
	}
	pushUs, depUs := percentile(push, 0.5), percentile(dep, 0.5)
	r.set("server.push_us_p50", pushUs, n)
	r.set("server.deployment_us_p50", depUs, n)
	r.set("server.report_us_p50", percentile(rep, 0.5), reports)
	r.set("client.pull_us_p50", percentile(pull, 0.5), n)
	r.set("server.http_push_us_p50", percentile(fr.pushUs, 0.5)-pushUs, len(fr.pushUs))
	r.set("server.http_poll_us_p50", percentile(fr.pollUs, 0.5)-depUs, len(fr.pollUs))
	return nil
}
