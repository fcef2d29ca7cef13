// Package online implements Nitro's online adaptation subsystem: the closed
// loop that keeps a deployed variant-selection model honest as the input
// distribution drifts away from the offline training corpus.
//
// An Engine attaches to a live core.CodeVariant as its call observer and
//
//  1. samples deployment calls through a rate limiter into a seeded
//     reservoir,
//  2. spends a configurable epsilon-greedy exploration budget re-timing the
//     non-predicted (constraint-feasible, non-quarantined) variants on
//     sampled inputs to observe the actual best,
//  3. feeds (featureVector, observedBest, predictedBest, timings) into a
//     windowed drift detector (a window is bad when its mismatch rate
//     reaches a threshold; two bad windows in a row are drift), and
//  4. on sustained drift, launches a background retrainer that seeds the
//     autotuner's pipeline (optionally the BvSB incremental loop) with the
//     drifted samples, validates the candidate against the incumbent on a
//     holdout of the most recent observations, and hot-swaps it through the
//     context's atomic model slot — or rolls back (keeps the incumbent) when
//     the candidate underperforms.
//
// The subsystem is inert by default: a CodeVariant without an attached
// engine pays one atomic load per call, and an engine with ExploreRate 0 is
// observationally identical to plain Call (test-asserted). All randomness —
// the exploration draws and the reservoir eviction — flows from one seeded
// PCG stream, so a serial replay with a fixed seed reproduces the same
// adaptation timeline event for event.
package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"nitro/internal/autotuner"
	"nitro/internal/core"
)

// Policy configures an adaptation engine. The zero value is invalid;
// construct with DefaultPolicy and override, or set every field explicitly
// (zeros are replaced by the documented defaults, except ExploreRate, whose
// zero genuinely means "never explore").
type Policy struct {
	// SamplePeriod admits 1 of every N calls into the sampling stage
	// (default/minimum 1: every call is a sampling candidate). Synchronous
	// engines rate-limit deterministically — exactly every N-th observed
	// call — for reproducible replays; asynchronous engines admit each call
	// with probability 1/N on a lock-free per-thread generator so the
	// non-sampled hot path writes no shared state.
	SamplePeriod int
	// ExploreRate is the epsilon of the epsilon-greedy exploration budget:
	// the probability that a sampled call is re-timed across its alternative
	// variants. 0 disables exploration (and with it drift detection); the
	// engine is then observationally identical to plain Call.
	ExploreRate float64
	// ReservoirSize caps the labelled-observation reservoir (default 128).
	// When full, a seeded uniformly random slot is evicted, which biases the
	// reservoir toward recent observations (old samples decay
	// exponentially) — exactly what a drift-recovery corpus wants.
	ReservoirSize int
	// Window is the number of explored observations per drift-detector
	// window (default 25).
	Window int
	// MismatchThreshold marks a window "bad" when its mismatch rate
	// (observed best != predicted) reaches it (default 0.35). Two bad
	// windows in a row declare drift, two good windows after a swap close
	// the episode, and a retrain is not asked for again until two windows
	// after a swap, rollback or failed retrain. The window's mean relative
	// regret is reported but decides nothing.
	MismatchThreshold float64
	// MinRetrainSamples is the minimum number of labelled observations from
	// the drifted period required before a retrain launches (default 20).
	MinRetrainSamples int
	// Retrain configures the background retrainer (classifier, incremental
	// BvSB seeding, holdout fraction, acceptance margin).
	Retrain autotuner.RetrainOptions
	// Seed drives the exploration and reservoir-eviction RNG.
	Seed int64
	// Synchronous runs retrains inline on the observing goroutine instead of
	// in the background — used by the deterministic replay harness and
	// tests; production traffic wants the default (background) behaviour.
	Synchronous bool
}

// DefaultPolicy returns a balanced starting configuration: sample every 4th
// call, explore a quarter of the samples, and retrain with the same SVM
// pipeline the offline tuner uses.
func DefaultPolicy(seed int64) Policy {
	return Policy{
		SamplePeriod:      4,
		ExploreRate:       0.25,
		ReservoirSize:     128,
		Window:            25,
		MismatchThreshold: 0.35,
		MinRetrainSamples: 20,
		Seed:              seed,
	}
}

// normalized fills structural zeros with the documented defaults.
func (p Policy) normalized() Policy {
	if p.SamplePeriod < 1 {
		p.SamplePeriod = 1
	}
	if p.ReservoirSize <= 0 {
		p.ReservoirSize = 128
	}
	if p.Window <= 0 {
		p.Window = 25
	}
	if p.MismatchThreshold <= 0 {
		p.MismatchThreshold = 0.35
	}
	if p.MinRetrainSamples <= 0 {
		p.MinRetrainSamples = 20
	}
	return p
}

// validate rejects nonsensical policies up front.
func (p Policy) validate() error {
	if p.ExploreRate < 0 || p.ExploreRate > 1 {
		return fmt.Errorf("online: ExploreRate %v must be in [0, 1]", p.ExploreRate)
	}
	if p.SamplePeriod < 0 {
		return fmt.Errorf("online: SamplePeriod %d must be >= 0", p.SamplePeriod)
	}
	if p.MismatchThreshold > 1 {
		return fmt.Errorf("online: MismatchThreshold %v must be <= 1", p.MismatchThreshold)
	}
	return nil
}

// labelled is one explored observation: a live input's feature vector with
// the full observed per-variant timings.
type labelled struct {
	seq      int64
	features []float64
	times    []float64
}

// sampledShards is the number of sampled-call counter shards per engine.
// Sampled calls scatter across shards (same trick as core's call statistics)
// so the bookkeeping never contends on a shared cache line.
const sampledShards = 8

// padCounter is one padded lock-free counter shard; the trailing pad keeps
// neighbouring shards on separate cache lines.
type padCounter struct {
	n atomic.Int64
	_ [56]byte
}

// Engine is a per-function adaptation engine. Attach it to a CodeVariant
// with Attach; it then observes every successful call until Close. All
// exported methods are safe for concurrent use.
type Engine[In any] struct {
	cv    *core.CodeVariant[In]
	cx    *core.Context
	fn    string
	pol   Policy
	tuner *autotuner.Tuner[In]

	paused atomic.Bool
	closed atomic.Bool
	// The engine does not count calls itself: core's sharded call statistics
	// already count every successful dispatch, so the Calls stat is derived
	// from that counter minus the Attach-time baseline (and minus calls that
	// flowed past a paused engine). The per-call hot path therefore writes
	// no shared engine state at all when the call is not sampled.
	baseCalls atomic.Int64
	// syncCalls is the Synchronous-mode rate-limiter phase: serial replays
	// count every observed call so sampling hits exactly every N-th call
	// and the timeline stays reproducible. Concurrent (asynchronous)
	// engines rate-limit probabilistically instead — an admission draw on
	// math/rand/v2's lock-free per-thread generator — so the non-sampled
	// path stays write-free.
	syncCalls atomic.Int64
	// sampled counts admitted calls on padded lock-free shards.
	sampled [sampledShards]padCounter

	retrainCtx    context.Context
	retrainCancel context.CancelFunc
	wg            sync.WaitGroup // in-flight background retrains

	mu         sync.Mutex
	rng        *rand.Rand
	seq        int64 // labelled-observation sequence
	reservoir  []labelled
	det        *detector
	retraining bool
	events     []Event

	// Counters (under mu; snapshot by Stats). pausedCalls accumulates the
	// core call count that flowed past the engine while it was paused;
	// pauseMark is the core count at the moment of the last Pause (valid
	// while paused). Both keep the derived Calls stat frozen across a pause.
	pausedCalls, pauseMark     int64
	closeFrozen                bool  // Close happened; Calls is pinned
	closeCalls                 int64 // derived call count at Close time
	explored, exploreFails     int64
	exploreSeconds             float64
	mismatches                 int64
	retrains, retrainsDeferred int64
	swaps, rollbacks           int64
}

// Attach installs an adaptation engine as cv's call observer. The engine
// starts in StateHealthy and begins sampling immediately; detach with Close.
func Attach[In any](cv *core.CodeVariant[In], pol Policy) (*Engine[In], error) {
	if cv == nil {
		return nil, errors.New("online: nil code variant")
	}
	if cv.NumVariants() < 2 {
		return nil, fmt.Errorf("online: adaptation needs >= 2 variants, have %d", cv.NumVariants())
	}
	if err := pol.validate(); err != nil {
		return nil, err
	}
	pol = pol.normalized()
	ctx, cancel := context.WithCancel(context.Background())
	e := &Engine[In]{
		cv:            cv,
		cx:            cv.Context(),
		fn:            cv.Policy().Name,
		pol:           pol,
		tuner:         &autotuner.Tuner[In]{CV: cv, Opts: pol.Retrain.TrainOptions},
		retrainCtx:    ctx,
		retrainCancel: cancel,
		rng:           rand.New(rand.NewPCG(uint64(pol.Seed), 0x6f6e6c696e65)), // "online"
		reservoir:     make([]labelled, 0, pol.ReservoirSize),
		det:           newDetector(pol),
	}
	e.baseCalls.Store(int64(e.cx.Stats(e.fn).Calls))
	cv.SetCallObserver(e)
	return e, nil
}

// Policy returns the engine's normalized policy.
func (e *Engine[In]) Policy() Policy { return e.pol }

// Pause makes the engine inert: observations pass through untouched (no
// sampling, no exploration, no drift accounting) until Resume. In-flight
// retrains are not interrupted.
func (e *Engine[In]) Pause() {
	if !e.paused.Swap(true) {
		e.mu.Lock()
		e.pauseMark = int64(e.cx.Stats(e.fn).Calls)
		e.emit(Event{Kind: EventPaused})
		e.mu.Unlock()
	}
}

// Resume re-enables a paused engine.
func (e *Engine[In]) Resume() {
	if e.paused.Swap(false) {
		e.mu.Lock()
		e.pausedCalls += int64(e.cx.Stats(e.fn).Calls) - e.pauseMark
		e.emit(Event{Kind: EventResumed})
		e.mu.Unlock()
	}
}

// Close detaches the engine from its CodeVariant, cancels and waits for any
// in-flight background retrain, and makes the engine permanently inert.
func (e *Engine[In]) Close() {
	if e.closed.Swap(true) {
		return
	}
	e.cv.SetCallObserver(nil)
	e.mu.Lock()
	e.closeCalls = e.observedCallsLocked()
	e.closeFrozen = true
	e.mu.Unlock()
	e.retrainCancel()
	e.wg.Wait()
}

// Wait blocks until no background retrain is in flight (tests and graceful
// drains; unlike Close it leaves the engine attached).
func (e *Engine[In]) Wait() { e.wg.Wait() }

// AdmitCall implements core.CallObserver: the rate limiter and the
// exploration draw, made before the call's variant runs, so an explored
// call's feature vector describes the input its variant received. It
// admits exactly the calls the engine will explore. The non-sampled path
// writes no shared state at all: two atomic flag loads plus one admission
// draw on math/rand/v2's lock-free per-thread generator (call counting is
// core's job — see the baseCalls comment). A sampled-but-not-explored call
// adds one shard-local atomic add — the engine mutex is only taken to draw
// the epsilon, when ExploreRate > 0. Synchronous engines rate-limit on a
// real counter instead, so serial replays sample exactly every N-th
// dispatch and stay deterministic. A sampled call that then fails on every
// variant counts as sampled but records nothing.
func (e *Engine[In]) AdmitCall() bool {
	if e.paused.Load() || e.closed.Load() {
		return false
	}
	if e.pol.Synchronous {
		c := e.syncCalls.Add(1)
		if (c-1)%int64(e.pol.SamplePeriod) != 0 {
			return false
		}
	} else if e.pol.SamplePeriod > 1 && rand.Uint64N(uint64(e.pol.SamplePeriod)) != 0 {
		return false
	}
	e.sampled[rand.Uint64N(sampledShards)].n.Add(1)
	if e.pol.ExploreRate <= 0 {
		return false
	}
	e.mu.Lock()
	explore := e.rng.Float64() < e.pol.ExploreRate
	e.mu.Unlock()
	return explore
}

// ObserveCall implements core.CallObserver: the exploration / drift
// pipeline for a call AdmitCall admitted. An engine paused or closed since
// the admission records nothing.
func (e *Engine[In]) ObserveCall(o core.CallObservation[In]) {
	if e.paused.Load() || e.closed.Load() {
		return
	}
	lab, best, spent, fails := e.exploreInput(o)

	e.mu.Lock()
	e.explored++
	e.exploreFails += fails
	e.exploreSeconds += spent
	job := e.recordExploredLocked(o, lab, best)
	e.mu.Unlock()

	e.runJob(job)
}

// runJob executes a retrain job inline (Synchronous) or in the background.
func (e *Engine[In]) runJob(job func()) {
	if job == nil {
		return
	}
	if e.pol.Synchronous {
		job()
		return
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		job()
	}()
}

// recordExploredLocked admits one labelled observation into the reservoir,
// feeds the drift detector, emits window/drift/recovered events and returns
// the retrain job to run (nil when none); mu must be held.
func (e *Engine[In]) recordExploredLocked(o core.CallObservation[In], lab labelled, best int) func() {
	e.seq++
	lab.seq = e.seq
	e.admitLocked(lab)

	pred := o.Predicted
	if pred < 0 {
		pred = o.ChosenIdx
	}
	mismatch := best != pred
	if mismatch {
		e.mismatches++
	}
	regret := 0.0
	if bt := lab.times[best]; bt > 0 && o.Value > bt {
		regret = (o.Value - bt) / bt
	}
	v := e.det.observe(lab.seq, mismatch, regret)
	var job func()
	if v.WindowClosed {
		e.emit(Event{Kind: EventWindow, MismatchRate: v.MismatchRate, Regret: v.Regret,
			Detail: fmt.Sprintf("bad=%v streak=%d state=%s", v.Bad, e.det.badStreak, e.det.state)})
		if v.DriftDetected {
			e.emit(Event{Kind: EventDrift, MismatchRate: v.MismatchRate, Regret: v.Regret,
				Detail: fmt.Sprintf("sustained over %d windows", driftWindows)})
		}
		if v.Recovered {
			e.emit(Event{Kind: EventRecovered, MismatchRate: v.MismatchRate, Regret: v.Regret,
				Detail: fmt.Sprintf("%d consecutive good windows", recoveryWindows)})
		}
		if v.WantRetrain && !e.retraining {
			job = e.startRetrainLocked(v.StreakStart)
		}
	}
	return job
}

// exploreInput re-times every selectable non-chosen variant on the sampled
// input, producing the full observed timing vector (vetoed / quarantined /
// failed variants score +Inf) and the observed-best index. The chosen
// variant's timing was already paid for by the live call.
func (e *Engine[In]) exploreInput(o core.CallObservation[In]) (labelled, int, float64, int64) {
	nv := e.cv.NumVariants()
	times := make([]float64, nv)
	for i := range times {
		times[i] = math.Inf(1)
	}
	times[o.ChosenIdx] = o.Value
	var spent float64
	var fails int64
	for j := 0; j < nv; j++ {
		if j == o.ChosenIdx || !e.cv.Selectable(j, o.Input) {
			continue
		}
		v, err := e.cv.ObserveVariant(j, o.Input)
		if err != nil {
			fails++
			continue
		}
		times[j] = v
		spent += v
	}
	best, bestV := o.ChosenIdx, o.Value
	for j, t := range times {
		if t < bestV {
			best, bestV = j, t
		}
	}
	features := make([]float64, len(o.Features))
	copy(features, o.Features)
	return labelled{features: features, times: times}, best, spent, fails
}

// admitLocked inserts one labelled observation into the reservoir, evicting
// a seeded-random slot when full (recency-biased: old samples decay
// exponentially as new ones arrive).
func (e *Engine[In]) admitLocked(lab labelled) {
	if len(e.reservoir) < cap(e.reservoir) {
		e.reservoir = append(e.reservoir, lab)
		return
	}
	e.reservoir[e.rng.IntN(len(e.reservoir))] = lab
}

// startRetrainLocked snapshots the drifted samples and returns the retrain
// job to run (nil when too few samples are available — the engine defers and
// retries on the next closed window).
func (e *Engine[In]) startRetrainLocked(streakStart int64) func() {
	var obs []autotuner.Observation
	for _, lab := range e.reservoir {
		if lab.seq >= streakStart {
			obs = append(obs, autotuner.Observation{Seq: lab.seq, Features: lab.features, Times: lab.times})
		}
	}
	if len(obs) < e.pol.MinRetrainSamples {
		e.retrainsDeferred++
		e.emit(Event{Kind: EventDeferred,
			Detail: fmt.Sprintf("%d drifted samples < %d required", len(obs), e.pol.MinRetrainSamples)})
		return nil
	}
	e.retraining = true
	e.retrains++
	e.det.onRetrainStart()
	e.emit(Event{Kind: EventRetrain, Detail: fmt.Sprintf("%d drifted samples", len(obs))})
	return func() { e.runRetrain(obs) }
}

// runRetrain executes one retrain → validate → swap/rollback cycle. Runs
// without holding mu (training is expensive); it re-locks to apply the
// verdict.
func (e *Engine[In]) runRetrain(obs []autotuner.Observation) {
	incumbent, _ := e.cx.Model(e.fn)
	res, err := e.tuner.RetrainFromObservations(e.retrainCtx, obs, incumbent, e.pol.Retrain)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.retraining = false
	if err != nil {
		e.det.onRetrainFailed()
		e.emit(Event{Kind: EventRetrainFailed, Detail: err.Error()})
		return
	}
	if !res.Accepted {
		e.rollbacks++
		e.det.onRollback()
		e.emit(Event{Kind: EventRollback, Version: incumbent.Version(),
			Detail: fmt.Sprintf("candidate holdout perf %.3f < incumbent %.3f (+%.3f required); incumbent v%d kept",
				res.CandidatePerf, res.IncumbentPerf, e.pol.Retrain.MinImprovement, incumbent.Version())})
		return
	}
	distilled := ""
	if res.Model.Compiled != nil {
		distilled = "; distilled"
	}
	if err := e.cx.SetModel(e.fn, res.Model); err != nil {
		e.det.onRetrainFailed()
		e.emit(Event{Kind: EventRetrainFailed, Detail: "install: " + err.Error()})
		return
	}
	e.swaps++
	e.det.onSwap()
	e.emit(Event{Kind: EventSwap, Version: res.Model.Version(),
		Detail: fmt.Sprintf("v%d -> v%d: holdout perf %.3f vs %.3f, mismatch %.0f%% vs %.0f%% (trained on %d)%s",
			incumbent.Version(), res.Model.Version(), res.CandidatePerf, res.IncumbentPerf,
			100*res.CandidateMismatch, 100*res.IncumbentMismatch, res.TrainSize, distilled)})
}

// observedCallsLocked derives the number of calls the engine has observed
// from core's call statistics: the current count minus the Attach-time
// baseline and minus everything that flowed past a pause; after Close the
// count is pinned at its detach-time value (mu must be held).
func (e *Engine[In]) observedCallsLocked() int64 {
	if e.closeFrozen {
		return e.closeCalls
	}
	cur := int64(e.cx.Stats(e.fn).Calls)
	n := cur - e.baseCalls.Load() - e.pausedCalls
	if e.paused.Load() {
		n -= cur - e.pauseMark
	}
	if n < 0 {
		n = 0
	}
	return n
}

// totalSampled sums the sampled-call count across the counter shards.
func (e *Engine[In]) totalSampled() int64 {
	var n int64
	for i := range e.sampled {
		n += e.sampled[i].n.Load()
	}
	return n
}

// Stats snapshots the engine's counters.
func (e *Engine[In]) Stats() core.AdaptStats {
	m, _ := e.cx.Model(e.fn)
	e.mu.Lock()
	defer e.mu.Unlock()
	st := core.AdaptStats{
		Calls:            e.observedCallsLocked(),
		Sampled:          e.totalSampled(),
		Explored:         e.explored,
		ExploreFailures:  e.exploreFails,
		ExploreSeconds:   e.exploreSeconds,
		Mismatches:       e.mismatches,
		Windows:          e.det.windows,
		LastMismatchRate: e.det.lastMismatch,
		LastRegret:       e.det.lastRegret,
		Drifts:           e.det.drifts,
		Retrains:         e.retrains,
		RetrainsDeferred: e.retrainsDeferred,
		Swaps:            e.swaps,
		Rollbacks:        e.rollbacks,
		ModelVersion:     m.Version(),
		State:            e.det.state.String(),
		Paused:           e.paused.Load(),
	}
	if e.retraining {
		st.State = StateRetraining.String()
	}
	return st
}

// State returns the drift state machine's current state.
func (e *Engine[In]) State() State {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.retraining {
		return StateRetraining
	}
	return e.det.state
}

// Events returns a copy of the adaptation timeline so far.
func (e *Engine[In]) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Event, len(e.events))
	copy(out, e.events)
	return out
}

// emit appends one event (mu must be held).
func (e *Engine[In]) emit(ev Event) {
	ev.Seq = len(e.events)
	ev.Call = e.observedCallsLocked()
	e.events = append(e.events, ev)
}
