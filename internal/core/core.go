// Package core implements the Nitro library runtime — the paper's primary
// contribution. It provides the code_variant abstraction: a tunable function
// with registered variants, input-feature functions and per-variant
// constraints, plus the deployment-time selection engine that consults a
// trained model, enforces constraints (falling back to an allowed variant),
// and evaluates features on demand: a call evaluates only the features its
// decision reads. FixInputs starts that evaluation on a goroutine (the
// paper's asynchronous fix_inputs), so it overlaps the caller's other work.
//
// The generic parameter In is the tunable function's input type, mirroring
// the C++ template argument tuple of the original library.
//
// # Concurrency model
//
// The runtime is built to serve concurrent traffic on one shared
// CodeVariant:
//
//   - Registration (AddVariant, AddInputFeature, AddConstraint, SetDefault)
//     is a setup-phase activity: finish it before the first concurrent Call,
//     per the usual Go convention that configuration happens-before use.
//   - Call, FixInputs, CallFixed, CallConcurrent, FeatureVector, SelectIndex
//     and Allowed are safe for unlimited concurrent use. They carry no shared
//     mutable state: a call's features live in its own callFeatures, and a
//     FixInputs prefetch in its own Fixed handle, never in the CodeVariant.
//   - The installed model is held in an atomic pointer, so Context.SetModel
//     hot-swaps a retuned model mid-traffic without ever blocking the
//     predict path.
//   - Call statistics are sharded atomic counters; recording a call takes no
//     lock, and Context.Stats sums the shards into a consistent-enough
//     snapshot (counts never tear; a snapshot taken during traffic may lag
//     in-flight calls by design).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/par"
)

// ErrAllVariantsVetoed is returned by Call/SelectIndex when constraints veto
// every registered variant for an input: there is nothing safe to execute,
// and silently running a vetoed variant (the pre-fix behaviour for a vetoed
// default) could crash or diverge.
var ErrAllVariantsVetoed = errors.New("core: all variants vetoed by constraints")

// errNoVariants is returned when Call runs before any variant is registered.
var errNoVariants = errors.New("core: no variants registered")

// ErrModelMismatch is wrapped by SetModel, LoadModel and SetCanary when a
// model is structurally incompatible with the registered tunable function
// (scaler feature dimension != registered feature count, or a class label
// of the classifier or of its compiled artifact outside the registered
// variant range). Installing such a model used to succeed and then corrupt
// or crash the predict path, or silently serve the default variant, on the
// first call.
var ErrModelMismatch = errors.New("core: model incompatible with registered function")

// modelSlot is one function's installed-model cell. The pointer is swapped
// atomically so model installation (SetModel/LoadModel) never contends with
// the predict path: readers Load, writers Store, nobody locks.
type modelSlot struct {
	p atomic.Pointer[ml.Model]
	// canary optionally holds a challenger model served to a fraction of
	// calls (see canary.go). Canary-served predictions bypass the memo
	// cache entirely, so stable-model entries stay valid across the whole
	// rollout.
	canary atomic.Pointer[canaryCell]
}

// statsShards is the number of counter shards per tunable function. Calls
// scatter across shards to keep concurrent writers off each other's cache
// lines; 32 comfortably covers the core counts this repo targets while
// keeping snapshots cheap.
const statsShards = 32

// atomicFloat64 is a float64 accumulated with compare-and-swap, for the
// value/feature-cost sums on the lock-free record path.
type atomicFloat64 struct {
	bits atomic.Uint64
}

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// statsShard is one slice of a function's call counters. The trailing pad
// separates neighbouring shards so two cores incrementing different shards do
// not false-share a cache line.
type statsShard struct {
	calls     atomic.Int64
	fallbacks atomic.Int64
	value     atomicFloat64
	featSecs  atomicFloat64
	// Failure accounting (the fault-tolerant dispatch layer).
	panics     atomic.Int64 // variant invocations that panicked (recovered)
	timeouts   atomic.Int64 // variant invocations that exceeded VariantTimeout
	failFb     atomic.Int64 // failure-driven fallback hops (one per attempt)
	trips      atomic.Int64 // quarantine trips (variant entered quarantine)
	recoveries atomic.Int64 // successful half-open probes (variant recovered)
	// Dispatch-tier accounting: which rung of the prediction ladder served
	// each model prediction.
	memoHits     atomic.Int64 // predictions served from the memo cache
	compiledHits atomic.Int64 // predictions served by the compiled artifact
	exactPreds   atomic.Int64 // predictions that evaluated the exact model
	// perVariant maps variant name -> *atomic.Int64. After the first call to
	// a given variant the sync.Map read path is lock-free.
	perVariant sync.Map
	_          [64]byte
}

// funcStats aggregates one tunable function's deployment statistics across
// shards. Recording picks a shard with a cheap per-goroutine random draw
// (math/rand/v2's lock-free per-thread generator), so the hot path is a
// handful of uncontended atomic adds.
type funcStats struct {
	shards [statsShards]statsShard
	// breakers maps variant name -> *breaker: the per-variant quarantine
	// state, shared by every CodeVariant bound to this function name so all
	// of them agree on variant health. Stored here (not per shard) because a
	// circuit breaker must trip globally.
	breakers sync.Map
	// hists is the opt-in per-variant latency histogram table
	// (Context.EnableLatencyHistograms). Nil — the default — costs the record
	// hot path exactly one atomic pointer load.
	hists atomic.Pointer[histTable]
}

// breakerFor returns (creating if needed) the named variant's breaker.
func (fs *funcStats) breakerFor(variant string) *breaker {
	if b, ok := fs.breakers.Load(variant); ok {
		return b.(*breaker)
	}
	b, _ := fs.breakers.LoadOrStore(variant, &breaker{})
	return b.(*breaker)
}

// shard picks a random shard (lock-free per-thread generator).
func (fs *funcStats) shard() *statsShard { return &fs.shards[shardIdx()] }

// shardIdx picks the calling goroutine's statistics shard from the address
// of a stack byte: goroutine stacks are disjoint, so concurrent callers
// spread across shards while a single goroutine keeps re-touching the same
// cache lines — the distribution a PRNG draw bought before, at a fraction of
// its hot-path cost. Only the address's value is used (pointer -> uintptr is
// the safe conversion direction); stack growth merely reshuffles the hint.
func shardIdx() uint64 {
	var b byte
	h := uint64(uintptr(unsafe.Pointer(&b)))
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & (statsShards - 1)
}

// recordFailure counts one failed variant invocation.
func (fs *funcStats) recordFailure(panicked, timedOut bool) {
	sh := fs.shard()
	if panicked {
		sh.panics.Add(1)
	}
	if timedOut {
		sh.timeouts.Add(1)
	}
}

// recordHop counts one failure-driven fallback attempt.
func (fs *funcStats) recordHop() { fs.shard().failFb.Add(1) }

// recordTrip counts one quarantine trip.
func (fs *funcStats) recordTrip() { fs.shard().trips.Add(1) }

// recordRecovery counts one successful half-open probe.
func (fs *funcStats) recordRecovery() { fs.shard().recoveries.Add(1) }

// recordTier counts one model prediction against the tier that served it.
func (fs *funcStats) recordTier(t ml.Tier) {
	switch t {
	case ml.TierMemo:
		fs.shard().memoHits.Add(1)
	case ml.TierCompiled:
		fs.shard().compiledHits.Add(1)
	case ml.TierExact:
		fs.shard().exactPreds.Add(1)
	}
}

// record counts one successful dispatch. cache is the dispatching variant's
// per-shard counter cache (variantEntry.cnt): the string-keyed perVariant
// lookup runs once per (variant, shard) and every later call is a single
// pointer load plus an atomic add — the sync.Map hash was the largest single
// cost on the dispatch fast path before this cache.
func (fs *funcStats) record(variant string, cache *[statsShards]atomic.Pointer[atomic.Int64], value, featSeconds float64, fallback bool) {
	i := shardIdx()
	sh := &fs.shards[i]
	sh.calls.Add(1)
	sh.value.Add(value)
	if featSeconds != 0 {
		sh.featSecs.Add(featSeconds)
	}
	if fallback {
		sh.fallbacks.Add(1)
	}
	cp := cache[i].Load()
	if cp == nil {
		// LoadOrStore is idempotent, so racing resolutions cache the same
		// counter and no count is ever split.
		c, ok := sh.perVariant.Load(variant)
		if !ok {
			c, _ = sh.perVariant.LoadOrStore(variant, new(atomic.Int64))
		}
		cp = c.(*atomic.Int64)
		cache[i].Store(cp)
	}
	cp.Add(1)
	if ht := fs.hists.Load(); ht != nil {
		ht.record(variant, value)
	}
}

// snapshot sums the shards into a CallStats copy. When latency histograms are
// enabled the per-variant summaries are digested too, with the regret
// estimate filled relative to the best (lowest-mean) variant.
func (fs *funcStats) snapshot() CallStats {
	out := CallStats{PerVariant: map[string]int{}}
	for i := range fs.shards {
		sh := &fs.shards[i]
		out.Calls += int(sh.calls.Load())
		out.DefaultFallbacks += int(sh.fallbacks.Load())
		out.TotalValue += sh.value.Load()
		out.FeatureSeconds += sh.featSecs.Load()
		out.Panics += int(sh.panics.Load())
		out.Timeouts += int(sh.timeouts.Load())
		out.Fallbacks += int(sh.failFb.Load())
		out.Quarantined += int(sh.trips.Load())
		out.Recoveries += int(sh.recoveries.Load())
		out.MemoHits += int(sh.memoHits.Load())
		out.CompiledHits += int(sh.compiledHits.Load())
		out.ExactFallbacks += int(sh.exactPreds.Load())
		sh.perVariant.Range(func(k, v any) bool {
			out.PerVariant[k.(string)] += int(v.(*atomic.Int64).Load())
			return true
		})
	}
	if ht := fs.hists.Load(); ht != nil {
		out.Latency = ht.summaries()
	}
	return out
}

// Context maintains the global state shared by all code variants in a
// program: the per-function trained models and call statistics. It mirrors
// the paper's nitro::context. A Context is safe for concurrent use; model
// lookup and statistics recording on the Call hot path are lock-free (the
// mutex only guards registration of new function names).
type Context struct {
	mu     sync.Mutex // guards the maps below, never held on the Call hot path
	models map[string]*modelSlot
	stats  map[string]*funcStats
	shapes map[string]funcShape
}

// funcShape records what a registered tunable function looks like — how many
// features and variants it has — so model installation can be validated
// against it. Zero fields mean "not registered yet" and skip that check.
type funcShape struct {
	featureDim  int
	numVariants int
}

// NewContext returns an empty tuning context.
func NewContext() *Context {
	return &Context{models: map[string]*modelSlot{}, stats: map[string]*funcStats{}, shapes: map[string]funcShape{}}
}

// noteShape records (monotonically) the named function's feature/variant
// counts as a CodeVariant registers them.
func (cx *Context) noteShape(fn string, featureDim, numVariants int) {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	s := cx.shapes[fn]
	if featureDim > s.featureDim {
		s.featureDim = featureDim
	}
	if numVariants > s.numVariants {
		s.numVariants = numVariants
	}
	cx.shapes[fn] = s
}

// validateModel checks m against the registered shape of fn (when one is
// known) with ml.Model.CheckShape: the scaler's and the compiled program's
// feature widths must match the registered feature count, and every class
// label, the classifier's and the compiled artifact's alike, must name a
// registered variant. A model installed before any CodeVariant registered
// fn's features/variants is accepted as-is (there is nothing to check it
// against yet).
func (cx *Context) validateModel(fn string, m *ml.Model) error {
	cx.mu.Lock()
	shape, ok := cx.shapes[fn]
	cx.mu.Unlock()
	if !ok {
		return nil
	}
	if err := m.CheckShape(shape.featureDim, shape.numVariants); err != nil {
		return fmt.Errorf("%w: function %q: %v", ErrModelMismatch, fn, err)
	}
	return nil
}

// slotFor returns (creating if needed) the named function's model cell.
func (cx *Context) slotFor(fn string) *modelSlot {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	s, ok := cx.models[fn]
	if !ok {
		s = &modelSlot{}
		cx.models[fn] = s
	}
	return s
}

// statsFor returns (creating if needed) the named function's counters.
func (cx *Context) statsFor(fn string) *funcStats {
	cx.mu.Lock()
	defer cx.mu.Unlock()
	s, ok := cx.stats[fn]
	if !ok {
		s = &funcStats{}
		cx.stats[fn] = s
	}
	return s
}

// SetModel installs the trained model for the named tunable function. The
// swap is atomic: calls in flight keep the model they already loaded, and
// subsequent calls see m — tuned models can be reloaded mid-traffic without
// pausing the predict path. Installing nil uninstalls the model.
//
// An installed model must not be mutated afterwards: the memo keys its
// entries by the model that computed them, so reinstalling the same pointer
// keeps its entries, and a mutated model would keep serving predictions of
// its old self. Install a new *ml.Model instead.
//
// When fn's shape is known (a CodeVariant has registered features/variants
// for it), the model is validated first: a scaler whose feature dimension
// disagrees with the registered features, or a class label naming no
// registered variant, is rejected with an error wrapping ErrModelMismatch
// and the previously installed model stays in place.
func (cx *Context) SetModel(fn string, m *ml.Model) error {
	if m != nil {
		if err := cx.validateModel(fn, m); err != nil {
			return fmt.Errorf("core: install model for %q: %w", fn, err)
		}
	}
	cx.slotFor(fn).p.Store(m)
	return nil
}

// Model returns the model for the named function, if one is installed.
func (cx *Context) Model(fn string) (*ml.Model, bool) {
	m := cx.slotFor(fn).p.Load()
	return m, m != nil
}

// SaveModel persists the named function's model to a JSON file (the
// deployment artifact that replaces the paper's generated header + libSVM
// model pair).
func (cx *Context) SaveModel(fn, path string) error {
	m, ok := cx.Model(fn)
	if !ok {
		return fmt.Errorf("core: no model for %q", fn)
	}
	data, err := ml.MarshalModel(m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadModel reads a model from a file in either artifact form, SaveModel's
// JSON or a registry's binary artifact, and installs it for fn. Like
// SetModel it is safe to call while fn is serving traffic.
func (cx *Context) LoadModel(fn, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	m, err := ml.UnmarshalModel(data)
	if err != nil {
		return fmt.Errorf("core: load model for %q from %s: %w", fn, path, err)
	}
	if err := cx.SetModel(fn, m); err != nil {
		return fmt.Errorf("core: load model from %s: %w", path, err)
	}
	return nil
}

// CallStats aggregates deployment-time selection statistics for one tunable
// function.
type CallStats struct {
	Calls            int            `json:"calls"`
	PerVariant       map[string]int `json:"per_variant"`
	DefaultFallbacks int            `json:"default_fallbacks"`
	TotalValue       float64        `json:"total_value"`
	// FeatureSeconds sums the modelled cost (Feature.Cost) of the features
	// each successful call evaluated on the caller: only the features its
	// decision read, with the compiled walk reading just those on its path,
	// and the whole vector when the call needed it (a walk inside the
	// margin, a model without a program, a traced or observed call, a
	// failure fallback the model ranks). A call without a model evaluates
	// none unless it is traced or observed. A Fixed handle charges nothing
	// for the features its FixInputs prefetch evaluated in the background,
	// and the full cost of any feature its CallFixed still had to evaluate.
	FeatureSeconds float64 `json:"feature_seconds"`

	// Failure accounting (fault-tolerant dispatch).

	// Panics counts variant invocations that panicked and were recovered.
	Panics int `json:"panics"`
	// Timeouts counts variant invocations that exceeded VariantTimeout.
	Timeouts int `json:"timeouts"`
	// Fallbacks counts failure-driven fallback hops: every additional
	// variant attempted after a panic/timeout/abort (distinct from
	// DefaultFallbacks, which counts constraint/model fallbacks at
	// selection time).
	Fallbacks int `json:"fallbacks"`
	// Quarantined counts quarantine trips — times a variant's circuit
	// breaker opened after Threshold failures inside one Window.
	Quarantined int `json:"quarantined"`
	// Recoveries counts successful half-open probes — times a quarantined
	// variant was readmitted to selection.
	Recoveries int `json:"recoveries"`

	// Dispatch-tier accounting: every model prediction lands in exactly one
	// of the three buckets below (calls without an installed model land in
	// none). MemoHits were served by the memoization cache, CompiledHits by
	// the distilled compiled artifact with margin clearance, and
	// ExactFallbacks evaluated the exact classifier — either because no
	// artifact is installed or because the input landed within the
	// calibrated margin of a distilled decision boundary.
	MemoHits       int `json:"memo_hits"`
	CompiledHits   int `json:"compiled_hits"`
	ExactFallbacks int `json:"exact_fallbacks"`

	// Latency holds the per-variant latency digest (p50/p95/p99 plus the
	// regret estimate relative to the best variant), populated only after
	// Context.EnableLatencyHistograms(fn); nil otherwise.
	Latency map[string]obs.LatencySummary `json:"latency,omitempty"`
}

// Stats returns a snapshot of the call statistics for fn. Taken under
// concurrent traffic the snapshot is a sum over shards: totals never tear,
// but calls that complete while the snapshot runs may or may not be counted.
//
// Contract: Stats on a function name that has never been registered (no
// CodeVariant bound, no call recorded) returns the zero-value CallStats with
// a non-nil empty PerVariant map — callers can range over PerVariant
// unconditionally — and does NOT register the name as a side effect.
func (cx *Context) Stats(fn string) CallStats {
	cx.mu.Lock()
	fs, ok := cx.stats[fn]
	cx.mu.Unlock()
	if !ok {
		return CallStats{PerVariant: map[string]int{}}
	}
	return fs.snapshot()
}

// TuningPolicy carries the per-function options the paper's Python tuning
// script writes into the generated header.
type TuningPolicy struct {
	// Name identifies the tunable function; models are keyed by it.
	Name string
	// ConstraintsEnabled toggles deployment-time constraint checking.
	ConstraintsEnabled bool
	// VariantTimeout, when positive, bounds every variant invocation: a
	// variant that runs longer fails with ErrVariantTimeout (wrapped in a
	// *VariantError) and dispatch walks the fallback chain. The overrunning
	// goroutine is abandoned, not killed — Go cannot preempt arbitrary code
	// — so variants should still be written to terminate.
	VariantTimeout time.Duration
	// Quarantine configures the per-variant failure circuit breaker; the
	// zero value disables it (no behaviour change relative to the
	// pre-fault-tolerance runtime).
	Quarantine QuarantinePolicy
}

// DefaultPolicy returns the paper's defaults: constraints on, no variant
// deadline, no quarantine.
func DefaultPolicy(name string) TuningPolicy {
	return TuningPolicy{Name: name, ConstraintsEnabled: true}
}

// VariantFn executes one code variant on an input and returns its
// optimization value. By the paper's convention the value is the time taken
// (here: simulated seconds), but any minimized criterion works.
type VariantFn[In any] func(In) float64

// ConstraintFn vetoes a variant for an input when it returns false.
type ConstraintFn[In any] func(In) bool

// Feature is one input-feature function with an optional evaluation-cost
// model (simulated seconds) used for overhead accounting (Fig. 8).
//
// Eval and Cost must be pure functions of the input. Every path evaluates a
// feature only when the decision reads it (the compiled walk reads just the
// features on its path), at most once per call or Fixed handle and always
// before the selected variant runs, and FeatureSeconds charges only the
// features a call evaluated on the caller. A FixInputs prefetch runs them
// on its own goroutine.
type Feature[In any] struct {
	Name string
	Eval func(In) float64
	Cost func(In) float64
}

type variantEntry[In any] struct {
	name        string
	fn          VariantFn[In]
	constraints []ConstraintFn[In]
	// br is this variant's quarantine circuit breaker, resolved from the
	// function's funcStats at registration (shared across CodeVariants bound
	// to the same function name). Consulted only when the policy enables
	// quarantining.
	br *breaker
	// cnt caches this variant's per-shard call counters from the shared
	// funcStats, so the record fast path skips the string-keyed perVariant
	// map after the first call on each shard.
	cnt [statsShards]atomic.Pointer[atomic.Int64]
}

// CodeVariant is the Go rendering of the paper's nitro::code_variant: a
// tunable function with registered variants, features and constraints.
//
// Register variants/features/constraints first, then share the CodeVariant
// freely: Call, FixInputs/CallFixed and CallConcurrent are safe for
// unlimited concurrent use (see the package comment for the full model).
// The variant, feature and constraint callbacks themselves must tolerate
// concurrent invocation when the CodeVariant is called concurrently.
type CodeVariant[In any] struct {
	cx       *Context
	policy   TuningPolicy
	variants []variantEntry[In]
	features []Feature[In]
	defIdx   int

	// model and stats are this function's cells in the context, resolved
	// once at construction so the Call hot path is a single atomic load away
	// from the model and a few atomic adds away from the statistics — no map
	// lookups, no locks.
	model *modelSlot
	stats *funcStats

	// memo is the feature-vector → raw-prediction cache behind the compiled
	// tier. Per CodeVariant, keyed by the model that computed each entry, so
	// a hot-swap needs no invalidation; see memoCache.
	memo *memoCache

	// observer is the optional adaptation hook (SetCallObserver): consulted
	// with one atomic load before every Call-path dispatch. Nil — the
	// default — keeps the runtime byte-identical to the pre-adaptation
	// behaviour.
	observer atomic.Pointer[CallObserver[In]]

	// tracer is the optional decision-trace collector (EnableTracing). Nil —
	// the default — costs the dispatch hot path exactly one atomic pointer
	// load; Off/Sampled/Always admission is the tracer's policy.
	tracer atomic.Pointer[obs.Tracer]
}

// New creates a tunable function bound to the context, mirroring
// code_variant's constructor.
func New[In any](cx *Context, policy TuningPolicy) *CodeVariant[In] {
	if cx == nil {
		cx = NewContext()
	}
	policy.Quarantine = policy.Quarantine.normalized()
	return &CodeVariant[In]{
		cx:     cx,
		policy: policy,
		defIdx: -1,
		model:  cx.slotFor(policy.Name),
		stats:  cx.statsFor(policy.Name),
		memo:   newMemoCache(memoSlots),
	}
}

// Context returns the bound tuning context.
func (cv *CodeVariant[In]) Context() *Context { return cv.cx }

// Policy returns the tuning policy.
func (cv *CodeVariant[In]) Policy() TuningPolicy { return cv.policy }

// AddVariant registers a variant and returns its label index.
func (cv *CodeVariant[In]) AddVariant(name string, fn VariantFn[In]) int {
	cv.variants = append(cv.variants, variantEntry[In]{name: name, fn: fn, br: cv.stats.breakerFor(name)})
	if cv.defIdx < 0 {
		cv.defIdx = 0
	}
	cv.cx.noteShape(cv.policy.Name, len(cv.features), len(cv.variants))
	return len(cv.variants) - 1
}

// SetDefault marks the named variant as the preferred fallback used when no
// model is installed or a predicted variant is vetoed at deployment time.
func (cv *CodeVariant[In]) SetDefault(name string) error {
	for i := range cv.variants {
		if cv.variants[i].name == name {
			cv.defIdx = i
			return nil
		}
	}
	return fmt.Errorf("core: unknown variant %q", name)
}

// AddInputFeature registers a feature function.
func (cv *CodeVariant[In]) AddInputFeature(f Feature[In]) {
	cv.features = append(cv.features, f)
	cv.cx.noteShape(cv.policy.Name, len(cv.features), len(cv.variants))
}

// AddConstraint attaches a constraint to the named variant.
func (cv *CodeVariant[In]) AddConstraint(variant string, c ConstraintFn[In]) error {
	for i := range cv.variants {
		if cv.variants[i].name == variant {
			cv.variants[i].constraints = append(cv.variants[i].constraints, c)
			return nil
		}
	}
	return fmt.Errorf("core: unknown variant %q", variant)
}

// VariantNames returns the registered variant names in label order.
func (cv *CodeVariant[In]) VariantNames() []string {
	out := make([]string, len(cv.variants))
	for i := range cv.variants {
		out[i] = cv.variants[i].name
	}
	return out
}

// FeatureNames returns the registered feature names in vector order.
func (cv *CodeVariant[In]) FeatureNames() []string {
	out := make([]string, len(cv.features))
	for i, f := range cv.features {
		out[i] = f.Name
	}
	return out
}

// NumVariants returns the number of registered variants.
func (cv *CodeVariant[In]) NumVariants() int { return len(cv.variants) }

// Allowed reports whether variant idx passes its constraints on in (always
// true when the policy disables constraints).
func (cv *CodeVariant[In]) Allowed(idx int, in In) bool { return cv.allowed(idx, &in) }

// allowed is Allowed on an input passed by pointer, the form the dispatch
// layers use so a call copies its input once, not at every layer.
func (cv *CodeVariant[In]) allowed(idx int, in *In) bool {
	if !cv.policy.ConstraintsEnabled {
		return true
	}
	for _, c := range cv.variants[idx].constraints {
		if !c(*in) {
			return false
		}
	}
	return true
}

// callFeatures is one dispatch's feature vector, evaluated on demand: the
// compiled walk's fill callback runs a feature's Eval and Cost (eval) the
// first time the walk reads it, and full completes the rest when a later
// rung (memo, exact), the observer, the tracer or the failure fallback
// needs the whole vector. Every read happens before the selected variant
// runs, except the failure fallback's, which runs after the failed
// variant. It is the only feature state in the runtime: Call keeps it in
// a pooled buffer, a Fixed handle owns one that its FixInputs prefetch
// fills in the background, and FeatureVector evaluates one whole through
// the same eval. A whole vector (SelectIndex's, FeatureVector's) has
// seen == nil.
//
// The input is not a field: the dispatch layers pass it by pointer beside
// the features, because vec and obs reach code that escape analysis cannot
// see through, and a pointer stored with them would move every Call's
// input to the heap.
type callFeatures[In any] struct {
	cv  *CodeVariant[In]
	vec []float64
	// seen has bit j set once vec[j] holds feature j; nil once vec is whole.
	seen []uint64
	// secs is the modelled cost of the features evaluated so far: what the
	// call charges to FeatureSeconds.
	secs float64
	// obs is the observer that admitted this call (see CallObserver), or nil.
	obs CallObserver[In]
}

// unread reports whether feature j still has to be evaluated.
func (f *callFeatures[In]) unread(j int) bool {
	return f.seen != nil && f.seen[j>>6]&(1<<(j&63)) == 0
}

// eval evaluates feature j of in into vec[j], charges its cost and, on an
// on-demand vector, marks it read. It copies the input into a local first:
// passing *in straight to each callback copies it twice.
func (f *callFeatures[In]) eval(in *In, j int) {
	ft := &f.cv.features[j]
	v := *in
	f.vec[j] = ft.Eval(v)
	if ft.Cost != nil {
		f.secs += ft.Cost(v)
	}
	if f.seen != nil {
		f.seen[j>>6] |= 1 << (j & 63)
	}
}

// full evaluates every feature of in not read yet and returns the whole
// vector.
func (f *callFeatures[In]) full(in *In) []float64 {
	if f.seen != nil {
		for j := range f.vec {
			if f.unread(j) {
				f.eval(in, j)
			}
		}
		f.seen = nil
	}
	return f.vec
}

// FeatureVector evaluates the whole feature vector synchronously, through
// the same per-feature code as Call, and returns it with its summed
// modelled evaluation cost.
func (cv *CodeVariant[In]) FeatureVector(in In) ([]float64, float64) {
	f := callFeatures[In]{cv: cv, vec: make([]float64, len(cv.features))}
	for j := range f.vec {
		f.eval(&in, j)
	}
	return f.vec, f.secs
}

// Fixed is a per-call future produced by FixInputs: the input it was created
// for plus the feature state its background prefetch fills. Binding the
// input into the handle guarantees that feature evaluation, constraint
// checking and variant execution always agree on one input — the handle,
// not the CodeVariant, carries the prefetch, so any number of goroutines
// can hold independent Fixed handles on one shared CodeVariant.
//
// A Fixed handle is single-shot: consume it with CallFixed (or Fixed.Call)
// exactly once. The handle itself must not be shared between goroutines.
type Fixed[In any] struct {
	cv       *CodeVariant[In]
	in       In
	f        callFeatures[In] // written by the prefetch until done closes
	panicked any              // what a feature panicked with in the prefetch
	done     chan struct{}
	consumed atomic.Bool
}

// FixInputs mirrors the paper's fix_inputs, upgraded from implicit shared
// state to an explicit per-call future. It returns at once and prefetches
// on a goroutine, so feature evaluation overlaps whatever the caller does
// before CallFixed: the prefetch walks the stable model's compiled program
// over the handle's own features, evaluating the ones the walk reads, and
// completes the whole vector only when the walk cannot decide (a path
// inside the margin, or a model without a program). Without a model it
// evaluates nothing. It counts no dispatch tier, draws no canary admission
// and leaves the memo alone, so the dispatch CallFixed runs decides exactly
// as Call would, on exactly the input the handle was fixed on.
//
// The prefetch ends on its own, whether or not the handle is consumed. A
// feature that panics in it panics CallFixed's caller with the same value,
// as it would have panicked Call's, instead of the whole process from a
// goroutine no caller can recover.
func (cv *CodeVariant[In]) FixInputs(in In) *Fixed[In] {
	n := len(cv.features)
	h := &Fixed[In]{cv: cv, in: in, done: make(chan struct{})}
	h.f = callFeatures[In]{cv: cv, vec: make([]float64, n), seen: make([]uint64, (n+63)/64)}
	go func() {
		defer func() {
			h.panicked = recover()
			close(h.done)
		}()
		m := cv.model.p.Load()
		if m == nil {
			return
		}
		fill := func(j int) {
			if h.f.unread(j) {
				h.f.eval(&h.in, j)
			}
		}
		if _, ok := m.PredictCompiled(h.f.vec, fill); !ok {
			h.f.full(&h.in)
		}
	}()
	return h
}

// Input returns the input the handle was fixed on.
func (f *Fixed[In]) Input() In { return f.in }

// Call consumes the handle: it waits for the prefetch, selects and executes
// a variant on the fixed input, and records statistics. Equivalent to
// cv.CallFixed(f).
func (f *Fixed[In]) Call() (float64, string, error) {
	return f.cv.CallFixed(f)
}

// CallFixed consumes a handle produced by this CodeVariant's FixInputs: it
// waits for the prefetch (the paper's implicit barrier), then runs the
// ordinary dispatch — selection, constraint checks, execution — on the
// input bound into the handle, over the features the prefetch evaluated.
// Those are charged nothing, because their evaluation overlapped the
// caller's other work. Whatever the call still needs (a model swapped in
// since FixInputs, a canary-served call, an admitting observer, a tracer,
// the failure fallback) is evaluated on the caller and charged as Call
// charges it.
//
// Consuming a handle twice, or a handle from a different CodeVariant, is an
// error.
func (cv *CodeVariant[In]) CallFixed(f *Fixed[In]) (float64, string, error) {
	if f == nil {
		return 0, "", errors.New("core: CallFixed on nil handle")
	}
	if f.cv != cv {
		return 0, "", errors.New("core: CallFixed with a handle from a different code variant")
	}
	if f.consumed.Swap(true) {
		return 0, "", errors.New("core: Fixed handle already consumed")
	}
	<-f.done
	if f.panicked != nil {
		panic(f.panicked)
	}
	f.f.secs = 0 // hidden: the prefetch overlapped other work
	return cv.dispatch(context.Background(), &f.in, &f.f)
}

// SelectIndex returns the variant label the selection engine would execute
// for in: the model's prediction when a model is installed and the predicted
// variant passes its constraints (and is not quarantined), otherwise the
// first available fallback (the default variant when its own constraints
// pass, else the lowest-indexed allowed variant). With quarantining enabled,
// quarantined variants are skipped; when every allowed variant is
// quarantined the chain is retried constraints-only as a last resort, since
// a quarantined variant may still succeed while selecting nothing cannot.
// The second result reports whether a fallback happened. When constraints
// veto every variant the index is -1 and the error is ErrAllVariantsVetoed.
func (cv *CodeVariant[In]) SelectIndex(in In, vec []float64) (int, bool, error) {
	f := callFeatures[In]{cv: cv, vec: vec}
	idx, _, _, fellBack, _, _, err := cv.selectWithPred(&in, &f)
	return idx, fellBack, err
}

// predict runs the model prediction ladder for one call: the compiled walk
// over on-demand features, then — only when the walk cannot decide (no
// program, or a path inside the margin) — the memo cache keyed on the whole
// vector, then the exact classifier. It returns the prediction, its tier
// and the model that made it: the challenger, or the stable pointer it
// loaded; (-1, TierNone, nil) without a model, which evaluates no feature.
// The tier counter is recorded here — at prediction time — so memoized,
// compiled and exact predictions are counted exactly once each. The memo
// therefore serves only exact-tier predictions, each looked up and stored
// under the model that makes the call's prediction.
//
// When a canary is installed, each call first draws whether the challenger
// serves it; canary-served predictions skip the memo cache in both
// directions (no stable-entry reads, no challenger stores) and return the
// cell so dispatch can account the outcome.
func (cv *CodeVariant[In]) predict(in *In, f *callFeatures[In]) (int, ml.Tier, *ml.Model, *canaryCell) {
	cs := cv.model.canary.Load()
	if cs != nil && !cs.admit() {
		cs = nil
	}
	m := cv.model.p.Load()
	if cs != nil {
		m = cs.model
	}
	if m == nil {
		return -1, ml.TierNone, nil, nil
	}
	var fill func(int) // nil for a whole vector: the walk indexes it directly
	if f.seen != nil {
		fill = func(j int) {
			if f.unread(j) {
				f.eval(in, j)
			}
		}
	}
	if pred, ok := m.PredictCompiled(f.vec, fill); ok {
		cv.stats.recordTier(ml.TierCompiled)
		return pred, ml.TierCompiled, m, cs
	}
	vec := f.full(in)
	if cs != nil {
		cv.stats.recordTier(ml.TierExact)
		return m.PredictExact(vec), ml.TierExact, m, cs
	}
	h := memoHash(vec)
	if pred, ok := cv.memo.lookup(h, vec, m); ok {
		cv.stats.recordTier(ml.TierMemo)
		return pred, ml.TierMemo, m, nil
	}
	pred := m.PredictExact(vec)
	cv.memo.store(h, vec, pred, m)
	cv.stats.recordTier(ml.TierExact)
	return pred, ml.TierExact, m, nil
}

// selectWithPred is SelectIndex plus the model's raw prediction (-1 when no
// model is installed), the tier that produced it, the model that made it
// and the canary cell when the challenger served the call — what the
// adaptation observer, the canary accounting, the failure fallback and the
// decision tracer need beyond the index.
func (cv *CodeVariant[In]) selectWithPred(in *In, f *callFeatures[In]) (int, int, ml.Tier, bool, *ml.Model, *canaryCell, error) {
	if len(cv.variants) == 0 {
		return -1, -1, ml.TierNone, false, nil, nil, errNoVariants
	}
	var now int64
	if cv.policy.Quarantine.Enabled() {
		now = nowNanos()
	}
	pred, tier, m, cs := cv.predict(in, f)
	if tier != ml.TierNone {
		if pred >= 0 && pred < len(cv.variants) && cv.selectable(pred, in, now) {
			return pred, pred, tier, false, m, cs, nil
		}
	}
	// Fallback chain: the default variant only if it passes its own
	// constraints (a vetoed default must never execute), then the first
	// allowed variant in registration order.
	if idx := cv.firstFallback(func(i int) bool { return cv.selectable(i, in, now) }); idx >= 0 {
		return idx, pred, tier, true, m, cs, nil
	}
	if cv.policy.Quarantine.Enabled() {
		// Everything allowed is quarantined: last resort, constraints only.
		if idx := cv.firstFallback(func(i int) bool { return cv.allowed(i, in) }); idx >= 0 {
			return idx, pred, tier, true, m, cs, nil
		}
	}
	return -1, pred, tier, true, m, cs, ErrAllVariantsVetoed
}

// dispatchResult is the full outcome of one dispatch: what ran, whether
// selection fell back, how many failure-driven fallback hops were taken and
// which model predicted the call — everything the decision tracer needs
// beyond the (value, name, err) triple the Call paths return.
//
// The small fields go last, so the struct packs into 72 bytes: the
// untraced path zeroes and copies it inline, where a larger one takes a
// runtime call each way.
type dispatchResult struct {
	value    float64
	idx      int
	name     string
	hops     int
	model    *ml.Model
	err      error
	tier     ml.Tier
	fellBack bool
}

// dispatch runs selection + execution + statistics for one call on in.
// Execution is fault-tolerant: the selected variant runs with panic
// isolation and an optional deadline, and on failure dispatch walks the
// fallback chain (score-ranked alternatives → default → registration order)
// before surfacing a typed error.
//
// The installed observer is asked first whether it wants this call (see
// CallObserver); an admitted call, like a traced one, evaluates its whole
// feature vector before anything else runs. When a tracer is installed and
// admits this call, the dispatch is wrapped in a DecisionTrace capture; the
// untraced path pays one atomic load.
func (cv *CodeVariant[In]) dispatch(ctx context.Context, in *In, f *callFeatures[In]) (float64, string, error) {
	if op := cv.observer.Load(); op != nil && (*op).AdmitCall() {
		f.obs = *op
		f.full(in)
	}
	if t := cv.tracer.Load(); t != nil && t.Admit() {
		return cv.dispatchTraced(ctx, t, in, f)
	}
	r := cv.dispatchRun(ctx, in, f)
	return r.value, r.name, r.err
}

// dispatchRun is the single dispatch implementation behind both the traced
// and untraced paths.
func (cv *CodeVariant[In]) dispatchRun(ctx context.Context, in *In, f *callFeatures[In]) dispatchResult {
	idx, pred, tier, fellBack, m, cs, err := cv.selectWithPred(in, f)
	if err != nil {
		if cs != nil {
			cs.record(true)
		}
		return dispatchResult{idx: -1, fellBack: fellBack, tier: tier, model: m, err: err}
	}
	value, verr := cv.exec(ctx, idx, in, f.secs, fellBack)
	if verr == nil {
		// A canary-served call that needed a selection fallback means the
		// challenger's pick was vetoed or quarantined: count it against the
		// challenger even though the fallback variant succeeded.
		if cs != nil {
			cs.record(fellBack)
		}
		cv.observe(in, f, pred, idx, value, fellBack)
		return dispatchResult{value: value, idx: idx, name: cv.variants[idx].name, fellBack: fellBack, tier: tier, model: m}
	}
	var ve *VariantError
	if !errors.As(verr, &ve) {
		// Caller cancellation says nothing about the challenger: no canary
		// accounting either way.
		return dispatchResult{idx: -1, fellBack: fellBack, tier: tier, model: m, err: verr} // context cancellation: do not fall back
	}
	if cs != nil {
		cs.record(true)
	}
	value, cidx, hops, ferr := cv.dispatchFallback(ctx, in, f, m, idx, pred, verr)
	r := dispatchResult{value: value, idx: cidx, fellBack: true, hops: hops, tier: tier, model: m, err: ferr}
	if cidx >= 0 && ferr == nil {
		r.name = cv.variants[cidx].name
	}
	return r
}

// Call is the paper's operator(): it selects a variant via the model with
// constraint fallback, evaluating the features the decision reads, executes
// it, records statistics, and returns the variant's value with the chosen
// variant name. Call is safe for unlimited concurrent use on one
// CodeVariant. It is exactly CallCtx with a background context.
func (cv *CodeVariant[In]) Call(in In) (float64, string, error) {
	return cv.CallCtx(context.Background(), in)
}

// CallCtx is Call with caller-controlled cancellation: a context that is
// cancelled before dispatch returns ctx.Err() immediately, and one cancelled
// mid-variant abandons the variant and returns ctx.Err() without walking the
// fallback chain (cancellation is the caller's choice, not a variant
// failure). With a background (never-cancelled) context it is byte-identical
// to Call in both results and recorded statistics.
//
// Features are evaluated on demand (see callFeatures).
func (cv *CodeVariant[In]) CallCtx(ctx context.Context, in In) (float64, string, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return 0, "", err
	}
	if len(cv.variants) == 0 {
		return 0, "", errNoVariants
	}
	// The feature buffer comes from a pool and is recycled after dispatch:
	// nothing downstream retains it (the memo tier and the tracer copy, and
	// the observer contract forbids retention), so the steady-state Call
	// fast path allocates nothing for features.
	b := featBufPool.Get().(*featBuf)
	n, words := len(cv.features), (len(cv.features)+63)/64
	if cap(b.vec) < n || cap(b.seen) < words {
		b.vec, b.seen = make([]float64, n), make([]uint64, words)
	}
	f := callFeatures[In]{cv: cv, vec: b.vec[:n]}
	// seen is set apart from the literal: with it inside, the compiler built
	// the struct in a temporary and copied it over (runtime.duffcopy, 7% of
	// a Call's CPU).
	f.seen = b.seen[:words]
	clear(f.seen)
	value, name, err := cv.dispatch(ctx, &in, &f)
	featBufPool.Put(b)
	return value, name, err
}

// featBuf is one pooled Call-path feature buffer: the vector and its
// evaluated-feature bitset. Fixed handles and FeatureVector allocate their
// own (newFeatures): a handle's vector lives until it is consumed, and
// FeatureVector hands its vector to the caller.
type featBuf struct {
	vec  []float64
	seen []uint64
}

var featBufPool = sync.Pool{New: func() any { return new(featBuf) }}

// CallResult is one input's outcome of CallConcurrent.
type CallResult struct {
	Value   float64
	Variant string
	Err     error
}

// CallConcurrent dispatches every input through Call, fanning the batch out
// over at most par.Workers(parallelism) goroutines (0 = all cores,
// 1 = serial). Results land in input order regardless of scheduling. The
// per-input selection is independent, so throughput scales with cores as
// long as the variant/feature callbacks do. It is exactly CallConcurrentCtx
// with a background context.
func (cv *CodeVariant[In]) CallConcurrent(ins []In, parallelism int) []CallResult {
	return cv.CallConcurrentCtx(context.Background(), ins, parallelism)
}

// CallConcurrentCtx is CallConcurrent with caller-controlled cancellation:
// once ctx is cancelled no further inputs are dispatched, and every input
// that never ran carries ctx.Err() in its result slot. Inputs already in
// flight finish (or are abandoned by their own CallCtx per the cancellation
// rules). Every result that ran is exactly CallCtx on that input. With a
// background context it is byte-identical to CallConcurrent.
func (cv *CodeVariant[In]) CallConcurrentCtx(ctx context.Context, ins []In, parallelism int) []CallResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]CallResult, len(ins))
	ran := make([]bool, len(ins))
	cerr := par.ForCtx(ctx, len(ins), par.Workers(parallelism), func(i int) {
		ran[i] = true
		out[i].Value, out[i].Variant, out[i].Err = cv.CallCtx(ctx, ins[i])
	})
	if cerr != nil {
		for i := range out {
			if !ran[i] {
				out[i].Err = cerr
			}
		}
	}
	return out
}

// ExhaustiveSearch runs every variant on in (vetoed variants score +Inf, per
// the paper's training-phase convention) and returns the value vector with
// the argmin label. It is the oracle the autotuner labels training inputs
// with. When every variant is vetoed the best index is -1. It is exactly
// ExhaustiveSearchCtx with a background context.
func (cv *CodeVariant[In]) ExhaustiveSearch(in In) ([]float64, int) {
	return cv.ExhaustiveSearchCtx(context.Background(), in)
}

// ExhaustiveSearchCtx is ExhaustiveSearch with panic isolation and deadlines:
// each variant runs through the fault-tolerant execution path, and one that
// panics, aborts or times out scores +Inf — it is simply infeasible for this
// input, exactly like a constraint veto, so a single broken variant no longer
// aborts a whole training corpus. Context cancellation stops the sweep early
// (remaining variants score +Inf).
func (cv *CodeVariant[In]) ExhaustiveSearchCtx(ctx context.Context, in In) ([]float64, int) {
	if ctx == nil {
		ctx = context.Background()
	}
	values := make([]float64, len(cv.variants))
	best, bestV := -1, math.Inf(1)
	for i := range cv.variants {
		if !cv.allowed(i, &in) || ctx.Err() != nil {
			values[i] = math.Inf(1)
			continue
		}
		v, err := cv.runVariant(ctx, i, &in)
		if err != nil {
			values[i] = math.Inf(1)
			continue
		}
		values[i] = v
		if values[i] < bestV {
			best, bestV = i, values[i]
		}
	}
	return values, best
}
