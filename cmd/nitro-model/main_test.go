package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nitro/internal/core"
	"nitro/internal/ml"
	"nitro/internal/obs"
	"nitro/internal/server"
)

func fixtureModel(t *testing.T) []byte {
	t.Helper()
	ds := &ml.Dataset{}
	for x := 0.0; x < 10; x++ {
		label := 0
		if x > 4.5 {
			label = 1
		}
		ds.Append([]float64{x, 2 * x}, label)
	}
	scaler := &ml.Scaler{}
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 1}, 4)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	data, err := ml.MarshalModel(&ml.Model{Classifier: svm, Scaler: scaler})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestInspectSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := inspect(fixtureModel(t), "", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classifier: svm", "classes (variant labels): [0 1]", "support vectors", "rbf(gamma=1)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestInspectPredict(t *testing.T) {
	var buf bytes.Buffer
	if err := inspect(fixtureModel(t), "8, 16", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "prediction: variant label 1") {
		t.Errorf("wrong prediction output:\n%s", buf.String())
	}
	buf.Reset()
	if err := inspect(fixtureModel(t), "1,2", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "prediction: variant label 0") {
		t.Errorf("wrong prediction output:\n%s", buf.String())
	}
}

func TestPredictBatch(t *testing.T) {
	data := fixtureModel(t)
	content := "# comment\n1,2\n\n8, 16\n3,6\n9,18\n"
	var serial bytes.Buffer
	if err := predictBatch(data, content, 1, &serial); err != nil {
		t.Fatal(err)
	}
	out := serial.String()
	for _, want := range []string{
		"batch predictions (4 vectors",
		"1,2 -> variant label 0",
		"8, 16 -> variant label 1",
		"3,6 -> variant label 0",
		"9,18 -> variant label 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("batch output missing %q:\n%s", want, out)
		}
	}
	// The fanned-out batch produces predictions in the same input order.
	var conc bytes.Buffer
	if err := predictBatch(data, content, 4, &conc); err != nil {
		t.Fatal(err)
	}
	serialLines := strings.SplitN(serial.String(), "\n", 2)[1]
	concLines := strings.SplitN(conc.String(), "\n", 2)[1]
	if serialLines != concLines {
		t.Errorf("concurrent batch differs from serial:\n%s\nvs\n%s", concLines, serialLines)
	}
}

func TestPredictBatchErrors(t *testing.T) {
	data := fixtureModel(t)
	if err := predictBatch(data, "# only comments\n", 1, &bytes.Buffer{}); err == nil {
		t.Error("empty batch accepted")
	}
	if err := predictBatch(data, "1,2\n1,x\n", 1, &bytes.Buffer{}); err == nil {
		t.Error("bad token in batch accepted")
	}
	if err := predictBatch(data, "1\n", 1, &bytes.Buffer{}); err == nil {
		t.Error("dimension mismatch in batch accepted")
	}
	if err := predictBatch([]byte("junk"), "1,2\n", 1, &bytes.Buffer{}); err == nil {
		t.Error("junk model accepted")
	}
}

func TestInspectErrors(t *testing.T) {
	if err := inspect([]byte("junk"), "", &bytes.Buffer{}); err == nil {
		t.Error("junk model accepted")
	}
	if err := inspect(fixtureModel(t), "1,x", &bytes.Buffer{}); err == nil {
		t.Error("bad feature token accepted")
	}
	if err := inspect(fixtureModel(t), "1", &bytes.Buffer{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
}

func TestOptionsValidateTable(t *testing.T) {
	cases := []struct {
		name string
		opts options
		ok   bool
	}{
		{"valid", options{Model: "m.json"}, true},
		{"valid with parallelism", options{Model: "m.json", Parallelism: 4}, true},
		{"missing model", options{}, false},
		{"negative parallelism", options{Model: "m.json", Parallelism: -1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.validate()
			if tc.ok && err != nil {
				t.Fatalf("valid options rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("invalid options accepted")
				}
				if !errors.Is(err, errBadFlags) {
					t.Fatalf("error %v does not wrap errBadFlags", err)
				}
			}
		})
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.json")
	if err := os.WriteFile(modelPath, fixtureModel(t), 0o644); err != nil {
		t.Fatal(err)
	}
	batchPath := filepath.Join(dir, "vectors.txt")
	if err := os.WriteFile(batchPath, []byte("1,2\n8,16\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(options{Model: modelPath, Predict: "8,16", PredictFile: batchPath, Parallelism: 1}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"classifier: svm", "prediction: variant label 1", "batch predictions (2 vectors"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "m.json")
	if err := os.WriteFile(modelPath, fixtureModel(t), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{Model: modelPath, Parallelism: -2}, &bytes.Buffer{}); !errors.Is(err, errBadFlags) {
		t.Errorf("negative parallelism: err = %v", err)
	}
	if err := run(options{Model: filepath.Join(dir, "missing.json")}, &bytes.Buffer{}); err == nil {
		t.Error("missing model file accepted")
	}
	if err := run(options{Model: modelPath, PredictFile: filepath.Join(dir, "missing.txt")}, &bytes.Buffer{}); err == nil {
		t.Error("missing predict-file accepted")
	}
}

// A vector of the wrong width for a model without a scaler is refused with
// an error by -predict, -explain and batch prediction, where the support
// vectors used to index past it and panic.
func TestWrongWidthOnUnscaledModel(t *testing.T) {
	raw := `{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":[[0,0],[1,1]],` +
		`"pairs":[{"a":0,"b":1,"sv":[0,1],"coefs":[1,-1],"rho":0,"iters":1}]}}`
	path := filepath.Join(t.TempDir(), "raw.json")
	if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []options{{Model: path, Predict: "1"}, {Model: path, Explain: "1"}, {Model: path, Predict: "1,2,3"}} {
		err := run(opts, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "support vector 0 has 2 features") {
			t.Errorf("%+v: err = %v, want a width error", opts, err)
		}
	}
	if err := predictBatch([]byte(raw), "1,2\n1\n", 1, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("batch with a 1-wide line: err = %v, want a width error on line 2", err)
	}
	var buf bytes.Buffer
	if err := run(options{Model: path, Predict: "1,2", Explain: "1,2"}, &buf); err != nil {
		t.Fatalf("2-wide vector: %v", err)
	}
	if !strings.Contains(buf.String(), "prediction: variant label 1") {
		t.Errorf("2-wide prediction missing:\n%s", buf.String())
	}
}

// stampedModel returns the fixture model with provenance metadata, as the
// tuner and the online retrainer write it.
func stampedModel(t *testing.T) []byte {
	t.Helper()
	model, err := ml.UnmarshalModel(fixtureModel(t))
	if err != nil {
		t.Fatal(err)
	}
	model.Meta = &ml.ModelMeta{Version: 2, TrainedOn: 30}
	data, err := ml.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInspectJSON pins the machine-readable summary: classifier shape plus
// the provenance metadata a deployment dashboard keys on.
func TestInspectJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := inspectJSON(stampedModel(t), &buf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Classifier     string `json:"classifier"`
		Classes        []int  `json:"classes"`
		Features       int    `json:"features"`
		SupportVectors int    `json:"support_vectors"`
		Version        int    `json:"version"`
		Meta           *ml.ModelMeta
	}
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("summary does not parse: %v\n%s", err, buf.String())
	}
	if summary.Classifier != "svm" || len(summary.Classes) != 2 || summary.Features != 2 {
		t.Errorf("summary shape: %+v", summary)
	}
	if summary.Version != 2 || summary.Meta == nil || summary.Meta.TrainedOn != 30 {
		t.Errorf("summary metadata: %+v", summary)
	}
}

// TestInspectJSONLegacyModel: artifacts written before metadata stamping
// report version 0 and a null meta instead of failing.
func TestInspectJSONLegacyModel(t *testing.T) {
	var buf bytes.Buffer
	if err := inspectJSON(fixtureModel(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"version": 0`, `"meta": null`} {
		if !strings.Contains(out, want) {
			t.Errorf("legacy summary missing %q:\n%s", want, out)
		}
	}
}

// TestExplainOutput checks the derivation printout: raw and scaled features,
// per-class scores, the pairwise SVM decision, the ranked fallback order and
// the prediction, and that the explained prediction agrees with -predict.
func TestExplainOutput(t *testing.T) {
	data := fixtureModel(t)
	var buf bytes.Buffer
	if err := explain(data, "8,16", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"explanation (model v0):",
		"raw features:    [8 16]",
		"scaled features:",
		"label 0 score",
		"label 1 score",
		"svm pair 0 vs 1: decision",
		"ranked fallback order: 1 -> 0",
		"predicted: variant label 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
	// Errors mirror -predict's.
	if err := explain(data, "1,x", &bytes.Buffer{}); err == nil {
		t.Error("bad feature token accepted")
	}
	if err := explain(data, "1", &bytes.Buffer{}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := explain([]byte("junk"), "1,2", &bytes.Buffer{}); err == nil {
		t.Error("junk model accepted")
	}
}

// TestExplainMatchesCallUnderFaults is the acceptance check: the ranked
// fallback order -explain prints is the exact chain the deployment runtime
// walks. We install the same model on a live CodeVariant, make the predicted
// variant panic, and verify Call lands on the explanation's second choice
// with exactly one fallback hop.
func TestExplainMatchesCallUnderFaults(t *testing.T) {
	data := fixtureModel(t)

	var buf bytes.Buffer
	if err := explain(data, "8,16", &buf); err != nil {
		t.Fatal(err)
	}
	var rankedLine string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, "ranked fallback order:") {
			rankedLine = strings.TrimSpace(strings.SplitN(line, ":", 2)[1])
		}
	}
	if rankedLine == "" {
		t.Fatalf("no ranked line in:\n%s", buf.String())
	}
	var ranked []int
	for _, tok := range strings.Split(rankedLine, "->") {
		n, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			t.Fatalf("bad ranked token %q: %v", tok, err)
		}
		ranked = append(ranked, n)
	}
	if len(ranked) != 2 {
		t.Fatalf("ranked = %v, want 2 entries", ranked)
	}

	type in struct{ x float64 }
	cx := core.NewContext()
	cv := core.New[in](cx, core.DefaultPolicy("fn"))
	names := []string{"v0", "v1"}
	cv.AddVariant("v0", func(i in) float64 { return 1 })
	cv.AddVariant("v1", func(i in) float64 { panic("predicted variant down") })
	if err := cv.SetDefault("v0"); err != nil {
		t.Fatal(err)
	}
	cv.AddInputFeature(core.Feature[in]{Name: "x", Eval: func(i in) float64 { return i.x }})
	cv.AddInputFeature(core.Feature[in]{Name: "2x", Eval: func(i in) float64 { return 2 * i.x }})
	model, err := ml.UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := cx.SetModel("fn", model); err != nil {
		t.Fatal(err)
	}
	tracer := cv.EnableTracing(obs.TracePolicy{Mode: obs.TraceAlways})

	_, chosen, err := cv.Call(in{x: 8})
	if err != nil {
		t.Fatal(err)
	}
	if want := names[ranked[1]]; chosen != want {
		t.Errorf("Call chose %q, explain's fallback chain says %q", chosen, want)
	}
	traces := tracer.Recent(1)
	if len(traces) != 1 {
		t.Fatal("no trace captured")
	}
	tr := traces[0]
	if tr.Predicted != ranked[0] || !tr.FellBack || tr.FallbackHops != 1 {
		t.Errorf("trace = predicted=%d fellback=%v hops=%d, want predicted=%d one hop",
			tr.Predicted, tr.FellBack, tr.FallbackHops, ranked[0])
	}
	if len(tr.Ranked) != len(ranked) {
		t.Fatalf("trace ranked %v vs explain %v", tr.Ranked, ranked)
	}
	for i := range ranked {
		if tr.Ranked[i] != ranked[i] {
			t.Errorf("trace ranked %v differs from explain's %v", tr.Ranked, ranked)
			break
		}
	}
}

// TestRunJSONMode drives -json through run, including the exclusivity check.
func TestRunJSONMode(t *testing.T) {
	modelPath := filepath.Join(t.TempDir(), "m.json")
	if err := os.WriteFile(modelPath, stampedModel(t), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(options{Model: modelPath, JSON: true}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"version": 2`) {
		t.Errorf("-json output missing version:\n%s", buf.String())
	}
	if err := run(options{Model: modelPath, JSON: true, Predict: "1,2"}, &bytes.Buffer{}); !errors.Is(err, errBadFlags) {
		t.Errorf("-json with -predict: err = %v, want errBadFlags", err)
	}
}

// compiledFixtureModel is fixtureModel with a distilled compiled artifact
// installed before serialization.
func compiledFixtureModel(t *testing.T) []byte {
	t.Helper()
	model, err := ml.UnmarshalModel(fixtureModel(t))
	if err != nil {
		t.Fatal(err)
	}
	corpus := make([][]float64, 10)
	for x := 0; x < 10; x++ {
		corpus[x] = []float64{float64(x), 2 * float64(x)}
	}
	c, err := ml.Distill(model, corpus, ml.DistillOptions{})
	if err != nil {
		t.Fatal(err)
	}
	model.Compiled = c
	data, err := ml.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInspectCompiledModel checks that inspection surfaces the compiled
// artifact (text and JSON) and that -explain reports the dispatch tier —
// the operator's view of which rung of the ladder decided.
func TestInspectCompiledModel(t *testing.T) {
	data := compiledFixtureModel(t)
	var buf bytes.Buffer
	if err := inspect(data, "", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"compiled dispatch:", "agreement", "margin"} {
		if !strings.Contains(out, want) {
			t.Errorf("compiled summary missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := inspectJSON(data, &buf); err != nil {
		t.Fatal(err)
	}
	var summary struct {
		Compiled *struct {
			Nodes      int     `json:"nodes"`
			Agreement  float64 `json:"agreement"`
			CorpusSize int     `json:"corpus_size"`
		} `json:"compiled"`
	}
	if err := json.Unmarshal(buf.Bytes(), &summary); err != nil {
		t.Fatalf("inspectJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if summary.Compiled == nil {
		t.Fatalf("JSON summary missing compiled block:\n%s", buf.String())
	}
	if summary.Compiled.Nodes == 0 || summary.Compiled.Agreement < 0.99 || summary.Compiled.CorpusSize != 10 {
		t.Errorf("compiled block wrong: %+v", summary.Compiled)
	}

	buf.Reset()
	if err := explain(data, "8,16", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dispatch tier: ") {
		t.Errorf("explain missing dispatch tier line:\n%s", buf.String())
	}
	// A plain model reports the exact tier.
	buf.Reset()
	if err := explain(fixtureModel(t), "8,16", &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dispatch tier: exact") {
		t.Errorf("plain model should explain as exact tier:\n%s", buf.String())
	}
}

// TestInspectRegistryArtifact: the binary artifact a registry stores in its
// data dir, read with -model, prints the same summary, -json and -explain
// output as its JSON form.
func TestInspectRegistryArtifact(t *testing.T) {
	dir := t.TempDir()
	reg, err := server.NewRegistry(server.RegistryConfig{
		Tenants: []server.TenantConfig{{Name: "acme", Token: "tok"}}, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	ctx := context.Background()
	if err := reg.RegisterFunction(ctx, "acme", server.FunctionSpec{Name: "fn",
		Features: []string{"a", "b"}, Variants: []string{"left", "right"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PushModel(ctx, "acme", "fn", compiledFixtureModel(t), ""); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(filepath.Join(dir, "acme", "fn", "v000001.model"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(stored, []byte("NMA1")) {
		t.Fatalf("registry stored %q, not a binary artifact", stored[:min(len(stored), 16)])
	}
	model, err := ml.UnmarshalModel(stored)
	if err != nil {
		t.Fatal(err)
	}
	asJSON, err := ml.MarshalModel(model)
	if err != nil {
		t.Fatal(err)
	}
	binPath, jsonPath := filepath.Join(dir, "v1.model"), filepath.Join(dir, "v1.model.json")
	for path, data := range map[string][]byte{binPath: stored, jsonPath: asJSON} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, opts := range []options{{Predict: "8,16"}, {JSON: true}, {Explain: "8,16"}} {
		var fromBin, fromJSON bytes.Buffer
		opts.Model = binPath
		if err := run(opts, &fromBin); err != nil {
			t.Fatal(err)
		}
		opts.Model = jsonPath
		if err := run(opts, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if fromBin.String() != fromJSON.String() {
			t.Errorf("%+v: binary artifact prints\n%s\nits JSON form prints\n%s", opts, fromBin.String(), fromJSON.String())
		}
		if !strings.Contains(fromBin.String(), "compiled") {
			t.Errorf("%+v: output does not show the compiled program:\n%s", opts, fromBin.String())
		}
	}
}
