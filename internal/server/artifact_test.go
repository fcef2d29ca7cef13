package server

// Artifact admission and compatibility: pushes whose shape no client can
// install are refused before anything is stored, and a data directory
// holding artifacts in the pre-table form reloads and serves them verbatim.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"nitro/internal/ml"
)

// shapedArtifact trains a 2-class SVM on features-dimensional inputs behind
// a fitted scaler and returns its artifact bytes. A non-nil compiledClasses
// attaches a one-leaf compiled program of width compiledDim over those
// labels.
func shapedArtifact(t *testing.T, features, compiledDim int, compiledClasses []int) []byte {
	t.Helper()
	ds := &ml.Dataset{}
	for i := 0; i < 10; i++ {
		x := make([]float64, features)
		for j := range x {
			x[j] = float64(i * (j + 1))
		}
		label := 0
		if i >= 5 {
			label = 1
		}
		ds.Append(x, label)
	}
	var scaler ml.Scaler
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.LinearKernel{}, 1)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	m := &ml.Model{Classifier: svm, Scaler: &scaler}
	if compiledClasses != nil {
		m.Compiled = &ml.Compiled{Nodes: []ml.CompiledNode{{Left: -1, Right: -1}}, Classes: compiledClasses, Dim: compiledDim}
	}
	data, _, err := ml.EncodeArtifact(m)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestPushRejectsShapeMismatch: an artifact whose scaler expects the wrong
// feature count, whose compiled program reads a different width, or whose
// compiled program names a variant the function lacks, is refused in
// process and over HTTP (400). Nothing is stored and
// the latest version stays put, before and after a first good version.
func TestPushRejectsShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	d, hs := newTestDaemon(t, func(cfg *Config) { cfg.Registry.DataDir = dir })
	spec := FunctionSpec{Name: "pair", Features: []string{"n", "sortedness"}, Variants: []string{"small", "large"}}
	mustStatus(t, req(t, hs, "POST", "/api/v1/functions", "tok-acme", specBody(t, spec), nil), http.StatusCreated)
	bad := map[string][]byte{
		"3-feature scaler":  shapedArtifact(t, 3, 0, nil),
		"compiled class 9":  shapedArtifact(t, 2, 2, []int{9}),
		"3-feature program": shapedArtifact(t, 2, 3, []int{1}),
	}
	stored := func() int {
		files, err := filepath.Glob(filepath.Join(dir, "acme", spec.Name, "v*.model"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	for latest := 0; latest <= 1; latest++ {
		for name, data := range bad {
			if _, err := d.Registry().PushModel(context.Background(), "acme", spec.Name, data, ""); !errors.Is(err, ErrInvalid) {
				t.Fatalf("%s: in-process push error = %v, want ErrInvalid", name, err)
			}
			mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/pair/model", "tok-acme", data, nil), http.StatusBadRequest)
			dep, err := d.Registry().Deployment("acme", spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if dep.Latest != latest || dep.Stable != latest || dep.Canary != nil || stored() != latest {
				t.Fatalf("%s: after the refused push deployment = %+v with %d stored, want latest %d",
					name, dep, stored(), latest)
			}
		}
		if latest == 0 {
			mustStatus(t, req(t, hs, "PUT", "/api/v1/functions/pair/model", "tok-acme", shapedArtifact(t, 2, 2, []int{1}), nil), http.StatusCreated)
		}
	}
}

// legacyForm rewrites an artifact into the form written before SVM bodies
// carried a shared support-vector table: every pair holds its support
// vectors in full, and the JSON is indented. Numbers keep their literals.
func legacyForm(t *testing.T, data []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var env map[string]any
	if err := dec.Decode(&env); err != nil {
		t.Fatal(err)
	}
	body := env["svm"].(map[string]any)
	table := body["svs"].([]any)
	for _, p := range body["pairs"].([]any) {
		pair := p.(map[string]any)
		var svs []any
		for _, id := range pair["sv"].([]any) {
			i, err := id.(json.Number).Int64()
			if err != nil {
				t.Fatal(err)
			}
			svs = append(svs, table[i])
		}
		pair["svs"] = svs
		delete(pair, "sv")
	}
	delete(body, "svs")
	out, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReloadServesLegacyArtifact: a data directory holding a pre-table
// artifact (a 3-class SVM with a compiled margin of 5e-324) as
// v000001.model reloads; the registry serves the stored bytes under their
// original ETag, and a client holding that ETag gets a 304.
func TestReloadServesLegacyArtifact(t *testing.T) {
	ds := &ml.Dataset{}
	for x := 0.0; x < 30; x++ {
		ds.Append([]float64{x}, int(x)/10)
	}
	var scaler ml.Scaler
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := ml.NewSVM(ml.RBFKernel{Gamma: 4}, 8)
	if err := svm.Fit(&ml.Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	m := &ml.Model{Classifier: svm, Scaler: &scaler, Meta: &ml.ModelMeta{Version: 1}}
	if m.Compiled, err = ml.Distill(m, ds.X, ml.DistillOptions{}); err != nil {
		t.Fatal(err)
	}
	if m.Compiled.Margin != math.SmallestNonzeroFloat64 {
		t.Fatalf("compiled margin %g, want 5e-324", m.Compiled.Margin)
	}
	compact, _, err := ml.EncodeArtifact(m)
	if err != nil {
		t.Fatal(err)
	}
	legacy := legacyForm(t, compact)
	if !bytes.Contains(legacy, []byte(`"margin": 5e-324`)) || bytes.Contains(legacy, []byte(`"sv":`)) {
		t.Fatalf("not a legacy artifact:\n%s", legacy)
	}

	dir := t.TempDir()
	fnDir := filepath.Join(dir, "acme", "sort")
	spec, err := json.Marshal(FunctionSpec{Name: "sort", Features: []string{"n"}, Variants: []string{"a", "b", "c"}})
	if err != nil {
		t.Fatal(err)
	}
	dep, err := json.Marshal(persistedDeployment{Stable: 1, Latest: 1, LastDec: DecisionPromoted})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(fnDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"spec.json": spec, "v000001.model": legacy, "deployment.json": dep} {
		if err := os.WriteFile(filepath.Join(fnDir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, hs := newTestDaemon(t, func(cfg *Config) { cfg.Registry.DataDir = dir })
	resp := req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil, nil)
	pulled := mustStatus(t, resp, http.StatusOK)
	etag := resp.Header.Get("ETag")
	if !bytes.Equal(pulled, legacy) || etag != ml.ETagOf(legacy) {
		t.Fatalf("reloaded registry serves %d bytes under %s, want the stored %d bytes under %s",
			len(pulled), etag, len(legacy), ml.ETagOf(legacy))
	}
	mustStatus(t, req(t, hs, "GET", "/api/v1/functions/sort/model", "tok-acme", nil,
		map[string]string{"If-None-Match": etag}), http.StatusNotModified)
	back, err := ml.DecodeArtifact(pulled, etag)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range ds.X {
		if got, want := back.Predict(x), m.Predict(x); got != want {
			t.Fatalf("pulled legacy model predicts %d at %v, trained model %d", got, x, want)
		}
	}
}
