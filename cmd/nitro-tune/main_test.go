package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/sparse"
)

func smallSpec() Spec {
	return Spec{
		Function:   "sort",
		Benchmark:  "Sort",
		Classifier: "svm",
		Scale:      0.1,
		Seed:       3,
		TrainCount: 12,
		TestCount:  12,
		Evaluate:   true,
	}
}

func TestRunSpecBenchmarkMode(t *testing.T) {
	spec := smallSpec()
	spec.ModelOut = filepath.Join(t.TempDir(), "sort.model.json")
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3 variants", "trained on", "model written", "test evaluation"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(spec.ModelOut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ml.UnmarshalModel(data); err != nil {
		t.Errorf("written model does not parse: %v", err)
	}
}

func TestRunSpecIncrementalMode(t *testing.T) {
	spec := smallSpec()
	spec.Incremental = &struct {
		Iterations     int     `json:"iterations"`
		TargetAccuracy float64 `json:"target_accuracy"`
	}{Iterations: 5}
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "incremental tuning") {
		t.Errorf("output missing incremental report:\n%s", buf.String())
	}
}

func TestRunSpecUnknownBenchmark(t *testing.T) {
	spec := smallSpec()
	spec.Benchmark = "Nope"
	if err := runSpec(spec, &bytes.Buffer{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// A spec naming any classifier but the SVM, the removed kinds among them,
// fails validation with an error that names the removal, before the corpus
// is built: nothing is printed, not even the function line. "" and "svm"
// select the SVM.
func TestRunSpecUnknownClassifier(t *testing.T) {
	for _, c := range []string{"knn", "tree", "logistic", "ensemble", "nope"} {
		spec := smallSpec()
		spec.Classifier = c
		var out bytes.Buffer
		err := runSpec(spec, &out)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("classifier %q is not available", c)) ||
			!strings.Contains(err.Error(), "removed") {
			t.Fatalf("classifier %s: err %v, want the error naming the removal", c, err)
		}
		if !errors.Is(err, errBadSpec) {
			t.Fatalf("classifier %s: err %v does not wrap errBadSpec", c, err)
		}
		if out.Len() != 0 {
			t.Fatalf("classifier %s: the corpus was built before the spec was rejected:\n%s", c, out.String())
		}
	}
	for _, c := range []string{"", "svm"} {
		spec := smallSpec()
		spec.Classifier = c
		if err := validateSpec(spec); err != nil {
			t.Errorf("classifier %q: %v", c, err)
		}
	}
}

func TestRunSpecMatrixMarketGlob(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, m *sparse.CSR) {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := sparse.WriteMatrixMarket(f, m.ToCOO()); err != nil {
			t.Fatal(err)
		}
	}
	// A corpus spanning two regimes so training has at least two labels.
	for i := 0; i < 3; i++ {
		write("stencil"+string(rune('a'+i))+".mtx", sparse.Stencil2D(20+4*i, 20+4*i))
		write("powerlaw"+string(rune('a'+i))+".mtx", sparse.PowerLaw(800+100*i, 8, 1.4, int64(i)))
	}
	spec := Spec{
		Function:  "spmv",
		Benchmark: "SpMV",
		Seed:      1,
		TrainGlob: filepath.Join(dir, "*.mtx"),
		TestGlob:  filepath.Join(dir, "stencil*.mtx"),
		Evaluate:  true,
	}
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "6 training") {
		t.Errorf("glob loading wrong:\n%s", buf.String())
	}
}

func TestRunSpecGlobErrors(t *testing.T) {
	spec := Spec{Function: "spmv", TrainGlob: filepath.Join(t.TempDir(), "*.mtx")}
	if err := runSpec(spec, &bytes.Buffer{}); err == nil {
		t.Error("empty glob accepted")
	}
	spec2 := Spec{Function: "bfs", Benchmark: "BFS", TrainGlob: "x/*.mtx"}
	if err := runSpec(spec2, &bytes.Buffer{}); err == nil {
		t.Error("file mode for non-SpMV benchmark accepted")
	}
}

func TestRunSpecThroughputReplay(t *testing.T) {
	spec := smallSpec()
	spec.Throughput = 200
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"deployment replay: 200 selections", "serial:", "concurrent:", "constraint fallbacks:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Both passes ran, so the replay context recorded 2 * Throughput calls.
	if !strings.Contains(out, "of 400 calls") {
		t.Errorf("replay stats should count both passes (400 calls):\n%s", out)
	}
}

func TestRunSpecPolicyAndCrossValidate(t *testing.T) {
	// A spec that still carries the removed parallel_feature_evaluation and
	// async_feature_eval keys loads; the keys are ignored.
	legacy := `{"function":"sort","benchmark":"Sort","classifier":"svm","scale":0.1,"seed":3,
		"train_count":12,"test_count":12,"evaluate":true,"constraints":false,"cross_validate":3,
		"parallel_feature_evaluation":true,"async_feature_eval":true}`
	var spec Spec
	if err := json.Unmarshal([]byte(legacy), &spec); err != nil {
		t.Fatalf("spec with the removed keys no longer loads: %v", err)
	}
	spec.PolicyOut = filepath.Join(t.TempDir(), "policy.json")
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "tuning policy written") || !strings.Contains(out, "cross-validated") {
		t.Errorf("output missing policy/CV lines:\n%s", out)
	}
	data, err := os.ReadFile(spec.PolicyOut)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(fields))
	if want := []string{"ConstraintsEnabled", "Name", "Quarantine", "VariantTimeout"}; !slices.Equal(keys, want) {
		t.Errorf("policy file keys %v, want %v:\n%s", keys, want, data)
	}
	// A policy file written before the feature-evaluation fields were
	// removed (testdata, from the same spec) loads as the same policy.
	legacyPolicy, err := os.ReadFile(filepath.Join("testdata", "legacy_policy.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got core.TuningPolicy
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(legacyPolicy, &got); err != nil {
		t.Fatalf("policy file with the removed fields no longer loads: %v", err)
	}
	if !reflect.DeepEqual(got, want) || got.ConstraintsEnabled || got.Name != "sort" {
		t.Errorf("legacy policy file loaded as %+v, want %+v", got, want)
	}
}

func TestValidateSpecTable(t *testing.T) {
	mut := func(f func(*Spec)) Spec {
		s := smallSpec()
		f(&s)
		return s
	}
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"valid", smallSpec(), true},
		{"empty function", mut(func(s *Spec) { s.Function = "" }), false},
		{"no corpus source", mut(func(s *Spec) { s.Benchmark = "" }), false},
		{"unknown classifier", mut(func(s *Spec) { s.Classifier = "ensemble" }), false},
		{"knn classifier", mut(func(s *Spec) { s.Classifier = "knn" }), false},
		{"negative scale", mut(func(s *Spec) { s.Scale = -1 }), false},
		{"negative train count", mut(func(s *Spec) { s.TrainCount = -5 }), false},
		{"negative test count", mut(func(s *Spec) { s.TestCount = -1 }), false},
		{"negative parallelism", mut(func(s *Spec) { s.Parallelism = -2 }), false},
		{"negative throughput", mut(func(s *Spec) { s.Throughput = -1 }), false},
		{"one-fold cross validation", mut(func(s *Spec) { s.CrossValidate = 1 }), false},
		{"negative cross validation", mut(func(s *Spec) { s.CrossValidate = -3 }), false},
		{"valid cross validation", mut(func(s *Spec) { s.CrossValidate = 3 }), true},
		{"incremental negative iterations", mut(func(s *Spec) {
			s.Incremental = &struct {
				Iterations     int     `json:"iterations"`
				TargetAccuracy float64 `json:"target_accuracy"`
			}{Iterations: -1}
		}), false},
		{"incremental zero iterations no target", mut(func(s *Spec) {
			s.Incremental = &struct {
				Iterations     int     `json:"iterations"`
				TargetAccuracy float64 `json:"target_accuracy"`
			}{}
		}), false},
		{"incremental zero iterations with target", mut(func(s *Spec) {
			s.Incremental = &struct {
				Iterations     int     `json:"iterations"`
				TargetAccuracy float64 `json:"target_accuracy"`
			}{TargetAccuracy: 0.9}
		}), true},
		{"incremental bad target", mut(func(s *Spec) {
			s.Incremental = &struct {
				Iterations     int     `json:"iterations"`
				TargetAccuracy float64 `json:"target_accuracy"`
			}{Iterations: 5, TargetAccuracy: 2}
		}), false},
		{"incremental with grid search", mut(func(s *Spec) {
			s.GridSearch = true
			s.Incremental = &struct {
				Iterations     int     `json:"iterations"`
				TargetAccuracy float64 `json:"target_accuracy"`
			}{Iterations: 5}
		}), false},
		{"inject faults without throughput", mut(func(s *Spec) { s.InjectFaults = "variant=Merge,panic=0.1" }), false},
		{"inject faults with throughput", mut(func(s *Spec) {
			s.Throughput = 10
			s.InjectFaults = "variant=Merge,panic=0.1"
		}), true},
		{"inject faults bad spec", mut(func(s *Spec) {
			s.Throughput = 10
			s.InjectFaults = "panic=0.1" // no variant
		}), false},
		{"inject faults rates over 1", mut(func(s *Spec) {
			s.Throughput = 10
			s.InjectFaults = "variant=Merge,panic=0.7,error=0.7"
		}), false},
		{"inject faults bad number", mut(func(s *Spec) {
			s.Throughput = 10
			s.InjectFaults = "variant=Merge,panic=lots"
		}), false},
		{"inject faults unknown key", mut(func(s *Spec) {
			s.Throughput = 10
			s.InjectFaults = "variant=Merge,frobnicate=1"
		}), false},
		{"negative online replay", mut(func(s *Spec) { s.OnlineReplay = -1 }), false},
		{"drift_at out of range", mut(func(s *Spec) {
			s.OnlineReplay = 100
			s.DriftAt = 1
		}), false},
		{"drift_at without online replay", mut(func(s *Spec) { s.DriftAt = 0.5 }), false},
		{"stats_json without replay", mut(func(s *Spec) { s.StatsJSON = true }), false},
		{"stats_json with online replay", mut(func(s *Spec) {
			s.StatsJSON = true
			s.OnlineReplay = 100
		}), true},
		{"valid online replay", mut(func(s *Spec) {
			s.OnlineReplay = 100
			s.DriftAt = 0.25
		}), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateSpec(tc.spec)
			if tc.ok && err != nil {
				t.Fatalf("valid spec rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("invalid spec accepted")
				}
				if !errors.Is(err, errBadSpec) {
					t.Fatalf("error %v does not wrap errBadSpec", err)
				}
			}
		})
	}
}

func TestRunSpecRejectsInvalidWithoutPartialOutput(t *testing.T) {
	spec := smallSpec()
	spec.Parallelism = -4
	var buf bytes.Buffer
	err := runSpec(spec, &buf)
	if !errors.Is(err, errBadSpec) {
		t.Fatalf("err = %v, want errBadSpec", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("invalid spec produced partial output:\n%s", buf.String())
	}
}

func TestParseFaultSpec(t *testing.T) {
	fs, err := parseFaultSpec("variant=Radix, panic=0.15, error=0.05, delay=0.1, delayms=30, timeoutms=5, seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Variant != "Radix" || fs.Cfg.PanicRate != 0.15 || fs.Cfg.ErrorRate != 0.05 ||
		fs.Cfg.DelayRate != 0.1 || fs.Cfg.Delay != 30*time.Millisecond ||
		fs.Timeout != 5*time.Millisecond || fs.Cfg.Seed != 9 {
		t.Fatalf("parsed %+v", fs)
	}
}

// TestRunSpecInjectFaults runs the graceful-degradation demo end to end: a
// throughput replay with one variant panicking 15% and hanging 10% of the
// time must complete (no process crash), report the fault counters, and show
// the variant quarantined.
func TestRunSpecInjectFaults(t *testing.T) {
	spec := smallSpec()
	spec.Throughput = 400
	spec.InjectFaults = "variant=Merge,panic=0.15,delay=0.10,delayms=30,timeoutms=5,seed=11"
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"fault injection: variant \"Merge\"", "graceful degradation:", "quarantine:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// onlineSpec is the shared online-replay configuration: 600 calls with the
// synthetic drift injected at the default 30% mark.
func onlineSpec() Spec {
	spec := smallSpec()
	spec.Evaluate = false
	spec.OnlineReplay = 600
	return spec
}

// TestRunSpecOnlineReplay drives the adaptation loop through the CLI: the
// replay must detect the injected drift, retrain on the explored samples,
// hot-swap a v2 model, and recover — and report it all machine-readably
// through -stats-json.
func TestRunSpecOnlineReplay(t *testing.T) {
	spec := onlineSpec()
	spec.StatsJSON = true
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"online replay: 600 calls",
		"drift injected at call 180",
		"adaptation timeline:",
		"] drift: ",
		"] retrain (",
		"] swap (v1 -> v2",
		"] recovered: ",
		"installed model: v2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The stats json line must parse back into the typed snapshots.
	idx := strings.Index(out, "stats json: ")
	if idx < 0 {
		t.Fatalf("no stats json line:\n%s", out)
	}
	line := out[idx+len("stats json: "):]
	line = line[:strings.Index(line, "\n")]
	var payload struct {
		CallStats  core.CallStats   `json:"call_stats"`
		AdaptStats *core.AdaptStats `json:"adapt_stats"`
	}
	if err := json.Unmarshal([]byte(line), &payload); err != nil {
		t.Fatalf("stats json does not parse: %v\n%s", err, line)
	}
	if payload.CallStats.Calls != 600 {
		t.Errorf("call_stats.calls = %d, want 600", payload.CallStats.Calls)
	}
	if payload.AdaptStats == nil || payload.AdaptStats.Swaps < 1 || payload.AdaptStats.ModelVersion < 2 {
		t.Errorf("adapt_stats did not record the swap: %+v", payload.AdaptStats)
	}
}

// TestRunSpecOnlineReplayDeterministic is the reproducibility contract: two
// runs of the same spec must produce byte-identical output, timeline
// included. (StatsJSON stays off: CallStats.TotalValue sums float values
// across randomly picked statistics shards, so its last bits are not
// deterministic — everything the replay itself prints is.)
func TestRunSpecOnlineReplayDeterministic(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		if err := runSpec(onlineSpec(), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("online replay not reproducible:\nrun A:\n%s\nrun B:\n%s", a, b)
	}
	if !strings.Contains(a, "] swap (") {
		t.Fatalf("replay never swapped:\n%s", a)
	}
}

// TestRunSpecOnlineReplayIncremental routes the retrain through the BvSB
// incremental loop (spec.incremental applies to online retrains too).
func TestRunSpecOnlineReplayIncremental(t *testing.T) {
	spec := onlineSpec()
	spec.Incremental = &struct {
		Iterations     int     `json:"iterations"`
		TargetAccuracy float64 `json:"target_accuracy"`
	}{Iterations: 10}
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "] retrain (") {
		t.Errorf("incremental online replay never retrained:\n%s", buf.String())
	}
}

// TestRunSpecThroughputStatsJSON covers the stats json emission on the plain
// throughput replay (no adaptation engine → no adapt_stats key).
func TestRunSpecThroughputStatsJSON(t *testing.T) {
	spec := smallSpec()
	spec.Throughput = 100
	spec.StatsJSON = true
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "stats json: ") {
		t.Fatalf("no stats json line:\n%s", out)
	}
	if strings.Contains(out, "adapt_stats") {
		t.Errorf("throughput-only replay should omit adapt_stats:\n%s", out)
	}
	if !strings.Contains(out, `"calls":200`) {
		t.Errorf("stats json should count both passes (200 calls):\n%s", out)
	}
}

func TestRunSpecInjectFaultsUnknownVariant(t *testing.T) {
	spec := smallSpec()
	spec.Throughput = 10
	spec.InjectFaults = "variant=NoSuchVariant,panic=0.1"
	if err := runSpec(spec, &bytes.Buffer{}); !errors.Is(err, errBadSpec) {
		t.Fatalf("err = %v, want errBadSpec for unknown variant", err)
	}
}

// TestRunSpecDistill: every run distills the model it writes and reports the
// compiled program, on the batch path and (TestRunSpecDistillIncremental) on
// the incremental one.
func TestRunSpecDistill(t *testing.T) {
	checkDistilledRun(t, smallSpec())
}

// checkDistilledRun runs spec with a model file and requires the written
// model to carry a compiled program that passed its agreement gate, and the
// output to report it.
func checkDistilledRun(t *testing.T, spec Spec) {
	t.Helper()
	spec.ModelOut = filepath.Join(t.TempDir(), "sort.model.json")
	var buf bytes.Buffer
	if err := runSpec(spec, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "compiled dispatch: ") || strings.Contains(out, "not installed") {
		t.Fatalf("output does not report an installed compiled program:\n%s", out)
	}
	data, err := os.ReadFile(spec.ModelOut)
	if err != nil {
		t.Fatal(err)
	}
	model, err := ml.UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if model.Compiled == nil {
		t.Fatalf("written model carries no compiled program:\n%s", out)
	}
	if model.Compiled.Agreement < 0.99 {
		t.Errorf("installed program agreement %v below gate", model.Compiled.Agreement)
	}
}

// Specs written while nitro-tune could precompute a decision grid, or while
// distillation was opt-in, may still set those spec keys; they are ignored
// and the spec runs as if they were absent.
func TestRunSpecIgnoresLegacyDistillGrid(t *testing.T) {
	legacy := `{"function":"sort","benchmark":"Sort","classifier":"svm","scale":0.1,"seed":3,
		"train_count":12,"test_count":12,"evaluate":true,"distill":true,"distill_grid":true}`
	var got Spec
	if err := json.Unmarshal([]byte(legacy), &got); err != nil {
		t.Fatalf("legacy spec no longer loads: %v", err)
	}
	if want := smallSpec(); !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy spec decoded as %+v, want %+v", got, want)
	}
	var buf bytes.Buffer
	if err := runSpec(got, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "compiled dispatch:") {
		t.Errorf("output missing compiled dispatch report:\n%s", buf.String())
	}
}

// TestRunSpecDistillIncremental: the incremental-tuning path writes a
// distilled model too.
func TestRunSpecDistillIncremental(t *testing.T) {
	spec := smallSpec()
	spec.Incremental = &struct {
		Iterations     int     `json:"iterations"`
		TargetAccuracy float64 `json:"target_accuracy"`
	}{Iterations: 5}
	checkDistilledRun(t, spec)
}
