package experiments

// Dispatch-overhead study for the compiled-dispatch subsystem: distill every
// benchmark's tuned model into a compiled artifact, record how faithfully it
// reproduces the exact classifier (the ≥99% agreement gate CI enforces), and
// time the three rungs of the dispatch ladder — memoized, compiled, exact —
// through a live core.CodeVariant replay. The JSON form (WriteDispatchJSON)
// is the machine-readable BENCH_dispatch.json artifact `make bench-dispatch`
// emits.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/core"
	"nitro/internal/ml"
)

// DispatchRow is one benchmark's distillation quality and per-tier call cost.
type DispatchRow struct {
	Benchmark string `json:"benchmark"`
	// Agreement is the fraction of training-corpus inputs on which the
	// served choice (compiled walk + margin fallback) matches the exact
	// classifier; the distiller's install gate requires >= 0.99.
	Agreement float64 `json:"agreement"`
	// FallbackRate is the calibrated fraction of corpus inputs the compiled
	// walk routes to the exact model (within-margin of a boundary).
	FallbackRate float64 `json:"fallback_rate"`
	Nodes        int     `json:"nodes"`
	Depth        int     `json:"depth"`
	// Per-tier steady-state Call cost in ns/op (0 when timing was skipped).
	MemoNs     float64 `json:"memo_ns_op"`
	CompiledNs float64 `json:"compiled_ns_op"`
	ExactNs    float64 `json:"exact_ns_op"`
}

// DistillSuite trains a suite's model and distills it into a compiled
// artifact, installing it on the returned model. A distiller rejection (gate
// failure) is returned as an error — the study's whole point is that every
// benchmark passes the agreement gate.
func DistillSuite(s *autotuner.Suite, opts Options) (*ml.Model, error) {
	model, _, err := autotuner.Train(s.Train, opts.Train)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	corpus := make([][]float64, 0, len(s.Train))
	for _, in := range s.Train {
		corpus = append(corpus, in.Features)
	}
	c, err := ml.Distill(model, corpus, ml.DistillOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.Name, err)
	}
	model.Compiled = c
	return model, nil
}

// Dispatch runs the study over every suite. calls is the per-tier timing
// iteration count; 0 skips timing and reports distillation quality only
// (the fast mode tests use).
func Dispatch(suites []*autotuner.Suite, opts Options, calls int) ([]DispatchRow, error) {
	opts = opts.Norm()
	out := make([]DispatchRow, 0, len(suites))
	for _, s := range suites {
		model, err := DistillSuite(s, opts)
		if err != nil {
			return nil, err
		}
		c := model.Compiled
		row := DispatchRow{
			Benchmark:    s.Name,
			Agreement:    c.Agreement,
			FallbackRate: c.FallbackRate,
			Nodes:        len(c.Nodes),
			Depth:        c.Depth(),
		}
		if calls > 0 {
			if row.MemoNs, err = timeTier(s, model, calls, tierMemo); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			if row.CompiledNs, err = timeTier(s, model, calls, tierCompiled); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
			if row.ExactNs, err = timeTier(s, model, calls, tierExact); err != nil {
				return nil, fmt.Errorf("%s: %w", s.Name, err)
			}
		}
		out = append(out, row)
	}
	return out, nil
}

const (
	tierMemo = iota
	tierCompiled
	tierExact
)

// timeTier measures the steady-state serial Call cost of one dispatch tier
// through a replay CodeVariant: tierMemo hammers one hot input so the memo
// cache serves every call after the second (the miss that admits it);
// tierCompiled disables the memo and
// cycles distinct inputs through the compiled walk; tierExact disables both
// fast tiers — the full scaler + classifier pass every call paid before this
// subsystem existed.
func timeTier(s *autotuner.Suite, model *ml.Model, calls, tier int) (float64, error) {
	feasible := autotuner.FeasibleTest(s)
	if len(feasible) == 0 {
		return 0, fmt.Errorf("dispatch timing: no feasible test instances")
	}
	policy := core.DefaultPolicy(s.Name)
	switch tier {
	case tierMemo:
		feasible = feasible[:1]
	case tierCompiled:
		policy.Dispatch.DisableMemo = true
	case tierExact:
		policy.Dispatch.DisableMemo = true
		policy.Dispatch.DisableCompiled = true
	}
	cx := core.NewContext()
	cv, err := autotuner.ReplayVariant(cx, s, policy)
	if err != nil {
		return 0, err
	}
	if err := cx.SetModel(s.Name, model); err != nil {
		return 0, err
	}
	// Warm the pools, the memo slot and the branch predictors before timing.
	warm := calls / 10
	if warm < len(feasible) {
		warm = len(feasible)
	}
	for i := 0; i < warm; i++ {
		if _, _, err := cv.Call(feasible[i%len(feasible)]); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < calls; i++ {
		if _, _, err := cv.Call(feasible[i%len(feasible)]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls), nil
}

// FormatDispatch renders the study as an aligned text table.
func FormatDispatch(rows []DispatchRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Dispatch overhead — compiled artifact quality and per-tier Call cost\n")
	fmt.Fprintf(&b, "%-10s %10s %9s %6s %6s %10s %12s %10s\n",
		"benchmark", "agreement", "fallback", "nodes", "depth", "memo", "compiled", "exact")
	for _, r := range rows {
		ns := func(v float64) string {
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.1f ns", v)
		}
		fmt.Fprintf(&b, "%-10s %9.2f%% %8.1f%% %6d %6d %10s %12s %10s\n",
			r.Benchmark, 100*r.Agreement, 100*r.FallbackRate, r.Nodes, r.Depth,
			ns(r.MemoNs), ns(r.CompiledNs), ns(r.ExactNs))
	}
	return b.String()
}

// dispatchReport is the on-disk shape of BENCH_dispatch.json.
type dispatchReport struct {
	// MinAgreement echoes the distiller's install gate so the consumer can
	// re-check rows against the threshold they were gated on.
	MinAgreement float64       `json:"min_agreement"`
	Calls        int           `json:"calls_per_tier"`
	Rows         []DispatchRow `json:"rows"`
}

// WriteDispatchJSON emits the machine-readable benchmark artifact.
func WriteDispatchJSON(w io.Writer, rows []DispatchRow, calls int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dispatchReport{
		MinAgreement: ml.DefaultDistillOptions().MinAgreement,
		Calls:        calls,
		Rows:         rows,
	})
}
