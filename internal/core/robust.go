// Fault-tolerant dispatch: typed variant errors, panic isolation, per-call
// deadlines, and the per-variant quarantine circuit breaker.
//
// The paper assumes every registered variant returns successfully; a
// production selection engine cannot. This file gives the runtime three
// failure-handling layers:
//
//  1. Panic isolation — every variant invocation runs under recover(), so a
//     buggy variant surfaces as a typed *VariantError instead of killing the
//     process.
//  2. Deadlines — TuningPolicy.VariantTimeout bounds each invocation; a
//     variant that overruns returns ErrVariantTimeout (its goroutine is
//     abandoned, since Go cannot preempt arbitrary code), and context-aware
//     entry points (CallCtx, CallConcurrentCtx) honour caller cancellation.
//  3. Quarantine — a sliding-window circuit breaker per variant: N failures
//     inside the window exclude the variant from selection for a cooldown;
//     after the cooldown one half-open probe either recovers it or re-opens
//     the quarantine. Breaker state lives in the function's sharded stats
//     structure, so all CodeVariants bound to the same function name share
//     one view of variant health.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"nitro/internal/ml"
)

// ErrVariantTimeout is the cause recorded in a VariantError when a variant
// invocation exceeds the policy's VariantTimeout.
var ErrVariantTimeout = errors.New("core: variant call exceeded VariantTimeout")

// VariantError describes one failed variant invocation: which variant, why,
// and whether the failure was a recovered panic. Dispatch converts every
// variant panic, Abort and timeout into this type so callers can react with
// errors.As / errors.Is instead of crashing.
type VariantError struct {
	// Variant is the name of the failed variant.
	Variant string
	// Cause is the underlying failure: the recovered panic (wrapped),
	// ErrVariantTimeout, or the error passed to Abort.
	Cause error
	// Panicked reports whether the failure was a recovered panic (as opposed
	// to a timeout or an explicit Abort).
	Panicked bool
}

func (e *VariantError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("core: variant %q panicked: %v", e.Variant, e.Cause)
	}
	return fmt.Sprintf("core: variant %q failed: %v", e.Variant, e.Cause)
}

// Unwrap exposes the cause so errors.Is(err, ErrVariantTimeout) and friends
// work through the VariantError envelope.
func (e *VariantError) Unwrap() error { return e.Cause }

// variantAbort carries an error raised via Abort through the recover path so
// safeCall can distinguish a deliberate abort from a genuine panic.
type variantAbort struct{ err error }

// Abort aborts the calling variant with err. The dispatch layer converts it
// into a *VariantError with Panicked=false and walks the fallback chain,
// exactly as for a panic — it is the sanctioned way for a VariantFn (whose
// signature has no error result, mirroring the paper's value-returning
// variants) to report that it cannot handle this input.
func Abort(err error) {
	if err == nil {
		err = errors.New("core: variant aborted")
	}
	panic(variantAbort{err: err})
}

// safeCall invokes fn(*in) under recover, converting a panic or Abort into a
// typed *VariantError. This is the single choke point through which every
// variant execution in the runtime (Call paths, exhaustive search, tuner
// labelling) flows.
func safeCall[In any](name string, fn VariantFn[In], in *In) (val float64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if ab, ok := r.(variantAbort); ok {
			err = &VariantError{Variant: name, Cause: ab.err}
			return
		}
		err = &VariantError{Variant: name, Cause: fmt.Errorf("panic: %v", r), Panicked: true}
	}()
	return fn(*in), nil
}

// QuarantinePolicy configures the per-variant failure circuit breaker.
// The zero value disables quarantining entirely.
type QuarantinePolicy struct {
	// Threshold is the number of failures inside one Window that trips the
	// breaker; 0 (the zero value) disables the quarantine.
	Threshold int
	// Window is the (tumbling) failure-counting window. Defaults to 1s when
	// Threshold > 0 and Window <= 0.
	Window time.Duration
	// Cooldown is how long a tripped variant stays excluded from selection
	// before a half-open probe may try it again. Defaults to 100ms when
	// Threshold > 0 and Cooldown <= 0.
	Cooldown time.Duration
}

// Enabled reports whether the policy quarantines at all.
func (q QuarantinePolicy) Enabled() bool { return q.Threshold > 0 }

// normalized fills in default window/cooldown for an enabled policy.
func (q QuarantinePolicy) normalized() QuarantinePolicy {
	if !q.Enabled() {
		return q
	}
	if q.Window <= 0 {
		q.Window = time.Second
	}
	if q.Cooldown <= 0 {
		q.Cooldown = 100 * time.Millisecond
	}
	return q
}

// DefaultQuarantine returns the breaker configuration used by the
// fault-injection harness and the examples: 5 failures within 1s quarantine
// a variant for 100ms.
func DefaultQuarantine() QuarantinePolicy {
	return QuarantinePolicy{Threshold: 5, Window: time.Second, Cooldown: 100 * time.Millisecond}
}

// brAcquire is the admission decision the breaker hands a caller about to
// execute a variant.
type brAcquire int

const (
	// brClosed: breaker closed, call freely.
	brClosed brAcquire = iota
	// brProbe: breaker half-open and this caller holds the single probe; it
	// must report the outcome via onSuccess/onFailure.
	brProbe
	// brOpen: variant quarantined (or the probe is already taken). Selection
	// skips it; the last-resort pass may still execute it.
	brOpen
)

// breaker is one variant's sliding-window circuit breaker. The open/closed
// check on the dispatch hot path is a single atomic load; the mutex is taken
// only on failures and half-open transitions, which are rare by construction.
type breaker struct {
	// openUntil is the unix-nano deadline of the current quarantine;
	// 0 means closed.
	openUntil atomic.Int64

	mu        sync.Mutex
	failures  int   // failures observed in the current window
	windowEnd int64 // unix nanos at which the current window tumbles
	probing   bool  // a half-open probe is in flight
}

// open reports whether the variant is currently quarantined. A breaker whose
// cooldown has elapsed (half-open) reports false: the variant is selectable
// again, and the dispatch path will claim the probe via acquire.
func (b *breaker) open(now int64) bool {
	ou := b.openUntil.Load()
	return ou != 0 && now < ou
}

// acquire admits a caller about to execute the variant.
func (b *breaker) acquire(now int64) brAcquire {
	ou := b.openUntil.Load()
	if ou == 0 {
		return brClosed
	}
	if now < ou {
		return brOpen
	}
	// Cooldown elapsed: half-open. Admit exactly one probe.
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.openUntil.Load() == 0 {
		return brClosed // another probe already recovered it
	}
	if b.probing {
		return brOpen
	}
	b.probing = true
	return brProbe
}

// onSuccess reports a successful execution; a successful half-open probe
// closes the breaker. Returns true when the variant just recovered.
func (b *breaker) onSuccess(acq brAcquire) bool {
	if acq != brProbe {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	b.failures = 0
	b.openUntil.Store(0)
	return true
}

// onFailure records one failed execution under the (normalized) policy and
// returns true when this failure tripped (or re-tripped) the quarantine.
func (b *breaker) onFailure(acq brAcquire, now int64, q QuarantinePolicy) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch acq {
	case brProbe:
		// Failed probe: straight back into quarantine.
		b.probing = false
		b.openUntil.Store(now + q.Cooldown.Nanoseconds())
		return true
	case brOpen:
		// A last-resort execution of an already-quarantined variant failed:
		// extend the quarantine, but don't count a fresh trip.
		b.openUntil.Store(now + q.Cooldown.Nanoseconds())
		return false
	}
	if now > b.windowEnd {
		b.failures = 0
		b.windowEnd = now + q.Window.Nanoseconds()
	}
	b.failures++
	if b.failures >= q.Threshold {
		b.failures = 0
		b.openUntil.Store(now + q.Cooldown.Nanoseconds())
		return true
	}
	return false
}

// nowNanos is the breaker clock (wall clock; resolution requirements are
// millisecond-scale cooldowns).
func nowNanos() int64 { return time.Now().UnixNano() }

// runVariant executes variant idx on in with panic isolation and, when the
// policy sets a VariantTimeout or the context is cancellable, a bounded wait:
// the variant runs in its own goroutine and a timeout/cancel abandons it (the
// goroutine finishes in the background and its result is discarded — Go
// cannot preempt arbitrary code). With no timeout and a non-cancellable
// context the variant runs inline, so the fast path spawns nothing.
//
// A timeout yields a *VariantError wrapping ErrVariantTimeout (the variant's
// fault); a context cancellation yields ctx.Err() unwrapped (the caller's
// choice), which dispatch treats as "stop now", not "try the next variant".
func (cv *CodeVariant[In]) runVariant(ctx context.Context, idx int, in *In) (float64, error) {
	v := &cv.variants[idx]
	timeout := cv.policy.VariantTimeout
	if timeout <= 0 && (ctx == nil || ctx.Done() == nil) {
		return safeCall(v.name, v.fn, in)
	}
	type outcome struct {
		val float64
		err error
	}
	ch := make(chan outcome, 1)
	inv := *in // an abandoned variant may outlive the caller's frame
	go func() {
		val, err := safeCall(v.name, v.fn, &inv)
		ch <- outcome{val, err}
	}()
	var timerC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timerC = t.C
	}
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case o := <-ch:
		return o.val, o.err
	case <-timerC:
		return 0, &VariantError{Variant: v.name, Cause: ErrVariantTimeout}
	case <-done:
		return 0, ctx.Err()
	}
}

// exec runs variant idx under the breaker protocol and records statistics:
// success lands in the ordinary per-call counters (with the fallback flag),
// failure bumps the panic/timeout counters and feeds the breaker. Context
// cancellations are returned untyped and charged to nobody.
func (cv *CodeVariant[In]) exec(ctx context.Context, idx int, in *In, featSeconds float64, fellBack bool) (float64, error) {
	v := &cv.variants[idx]
	qOn := cv.policy.Quarantine.Enabled() && v.br != nil
	acq := brClosed
	if qOn {
		acq = v.br.acquire(nowNanos())
	}
	value, err := cv.runVariant(ctx, idx, in)
	if err == nil {
		if qOn && v.br.onSuccess(acq) {
			cv.stats.recordRecovery()
		}
		cv.stats.record(v.name, &v.cnt, value, featSeconds, fellBack)
		return value, nil
	}
	var ve *VariantError
	if !errors.As(err, &ve) {
		// Context cancellation: not the variant's fault — no breaker penalty,
		// no failure counters.
		return 0, err
	}
	cv.stats.recordFailure(ve.Panicked, errors.Is(ve.Cause, ErrVariantTimeout))
	if qOn && v.br.onFailure(acq, nowNanos(), cv.policy.Quarantine) {
		cv.stats.recordTrip()
	}
	return 0, err
}

// selectable reports whether variant idx may be selected for in right now:
// its constraints pass and it is not quarantined. A half-open breaker counts
// as selectable — the execution path then claims the single probe.
func (cv *CodeVariant[In]) selectable(idx int, in *In, now int64) bool {
	if !cv.allowed(idx, in) {
		return false
	}
	if !cv.policy.Quarantine.Enabled() {
		return true
	}
	br := cv.variants[idx].br
	return br == nil || !br.open(now)
}

// firstFallback returns the first variant of the static fallback chain —
// default variant, then registration order — that passes ok, or -1.
func (cv *CodeVariant[In]) firstFallback(ok func(idx int) bool) int {
	if cv.defIdx >= 0 && ok(cv.defIdx) {
		return cv.defIdx
	}
	for i := range cv.variants {
		if i != cv.defIdx && ok(i) {
			return i
		}
	}
	return -1
}

// fallbackOrder returns the variants to try after the primary pick failed,
// in dispatch preference order: the remaining classes of m — the model that
// served the call — ranked by decision score, then the default variant,
// then registration order — each filtered by constraints and the tried set.
// Ranking completes the call's feature vector. Non-quarantined candidates
// come first; quarantined ones are appended as a last resort (executing a
// quarantined variant may still succeed, whereas skipping every candidate
// guarantees failure).
func (cv *CodeVariant[In]) fallbackOrder(in *In, f *callFeatures[In], m *ml.Model, tried []bool, now int64) []int {
	var ranked []int
	if m != nil {
		ranked = m.RankedClasses(f.full(in))
	}
	var order []int
	seen := make([]bool, len(cv.variants))
	pass := func(filterQuarantine bool) {
		add := func(idx int) {
			if idx < 0 || idx >= len(cv.variants) || seen[idx] || tried[idx] {
				return
			}
			if !cv.allowed(idx, in) {
				seen[idx] = true // constraints are input-deterministic: veto once
				return
			}
			if filterQuarantine && !cv.selectable(idx, in, now) {
				return // leave for the last-resort pass
			}
			seen[idx] = true
			order = append(order, idx)
		}
		for _, c := range ranked {
			add(c)
		}
		add(cv.defIdx)
		for i := range cv.variants {
			add(i)
		}
	}
	pass(true)
	if cv.policy.Quarantine.Enabled() {
		pass(false)
	}
	return order
}

// dispatchFallback walks the failure fallback chain after the primary
// variant failed with firstErr, recording one Fallbacks hop per attempt; m
// is the model that served the call, whose ranking orders the chain. It
// returns the first successful execution (value, chosen variant index and
// the number of hops walked), the context error if the caller cancelled
// mid-chain, or the last variant error when every candidate failed. The
// chosen index is -1 on error; the hop count is meaningful either way (the
// decision tracer records it).
func (cv *CodeVariant[In]) dispatchFallback(ctx context.Context, in *In, f *callFeatures[In], m *ml.Model, failed int, pred int, firstErr error) (float64, int, int, error) {
	tried := make([]bool, len(cv.variants))
	tried[failed] = true
	lastErr := firstErr
	hops := 0
	for _, idx := range cv.fallbackOrder(in, f, m, tried, nowNanos()) {
		if ctx != nil && ctx.Err() != nil {
			return 0, -1, hops, ctx.Err()
		}
		cv.stats.recordHop()
		hops++
		value, err := cv.exec(ctx, idx, in, f.secs, true)
		if err == nil {
			cv.observe(in, f, pred, idx, value, true)
			return value, idx, hops, nil
		}
		tried[idx] = true
		var ve *VariantError
		if !errors.As(err, &ve) {
			return 0, -1, hops, err // context cancellation: stop the chain
		}
		lastErr = err
	}
	return 0, -1, hops, lastErr
}

// FaultConfig configures WrapFault's seeded fault injection: per-call
// probabilities of panicking, aborting with ErrInjectedFault, or sleeping
// Delay before running the wrapped variant. Rates are checked in that order
// against a single uniform draw, so they are mutually exclusive and their
// sum must stay <= 1.
type FaultConfig struct {
	// PanicRate is the probability of an injected panic.
	PanicRate float64
	// ErrorRate is the probability of an injected Abort(ErrInjectedFault).
	ErrorRate float64
	// DelayRate is the probability of an injected sleep of Delay (simulating
	// a hang; pair with TuningPolicy.VariantTimeout < Delay to exercise the
	// timeout path).
	DelayRate float64
	// Delay is the injected sleep duration; defaults to 10ms.
	Delay time.Duration
	// Seed seeds the fault RNG, making serial runs reproducible.
	Seed int64
}

// ErrInjectedFault is the cause of error-mode failures injected by WrapFault.
var ErrInjectedFault = errors.New("core: injected fault")

// WrapFault wraps fn with seeded fault injection per cfg — the harness the
// robustness stress tests and `nitro-tune -inject-faults` use to demonstrate
// graceful degradation. Draws come from one mutex-guarded PCG stream, so a
// serial run with a fixed seed replays the same fault sequence; concurrent
// callers see a scheduling-dependent interleaving of the same stream.
func WrapFault[In any](fn VariantFn[In], cfg FaultConfig) VariantFn[In] {
	var mu sync.Mutex
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x6e6974726f)) // "nitro"
	return func(in In) float64 {
		mu.Lock()
		p := rng.Float64()
		mu.Unlock()
		switch {
		case p < cfg.PanicRate:
			panic(fmt.Sprintf("injected fault (draw %.4f)", p))
		case p < cfg.PanicRate+cfg.ErrorRate:
			Abort(ErrInjectedFault)
		case p < cfg.PanicRate+cfg.ErrorRate+cfg.DelayRate:
			d := cfg.Delay
			if d <= 0 {
				d = 10 * time.Millisecond
			}
			time.Sleep(d)
		}
		return fn(in)
	}
}

// WrapVariants replaces every registered variant function with
// wrap(name, fn); returning fn unchanged leaves that variant as-is. It is
// the hook the fault-injection harness uses to wrap selected variants after
// registration (e.g. on a replay variant whose closures are built
// internally). Like the other registration methods it is a setup-phase
// operation: call it before the CodeVariant serves concurrent traffic.
func (cv *CodeVariant[In]) WrapVariants(wrap func(name string, fn VariantFn[In]) VariantFn[In]) {
	for i := range cv.variants {
		cv.variants[i].fn = wrap(cv.variants[i].name, cv.variants[i].fn)
	}
}
