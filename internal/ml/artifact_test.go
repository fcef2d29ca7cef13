package ml

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestArtifactRoundTrip: encode → decode reproduces the model, the ETag is
// deterministic, and a corrupted artifact fails the ETag check.
func TestArtifactRoundTrip(t *testing.T) {
	ds := &Dataset{}
	for x := 0.0; x < 6; x++ {
		label := 0
		if x > 2.5 {
			label = 1
		}
		ds.Append([]float64{x}, label)
	}
	svm := NewSVM(LinearKernel{}, 1)
	if err := svm.Fit(ds); err != nil {
		t.Fatal(err)
	}
	m := &Model{Classifier: svm, Meta: &ModelMeta{Version: 3, TrainedOn: 6}}

	data, etag, err := EncodeArtifact(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(etag, `"sha256-`) || !strings.HasSuffix(etag, `"`) {
		t.Fatalf("etag %q is not a quoted sha256 tag", etag)
	}
	data2, etag2, err := EncodeArtifact(m)
	if err != nil {
		t.Fatal(err)
	}
	if etag != etag2 || string(data) != string(data2) {
		t.Fatal("re-encoding an unchanged model changed the artifact")
	}

	back, err := DecodeArtifact(data, etag)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version() != 3 {
		t.Fatalf("round-trip lost the version stamp: %d", back.Version())
	}
	for x := 0.0; x < 6; x++ {
		if got, want := back.Predict([]float64{x}), m.Predict([]float64{x}); got != want {
			t.Fatalf("round-trip prediction diverged at x=%v: %d vs %d", x, got, want)
		}
	}

	// Corruption is caught by the ETag before the parser ever runs.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := DecodeArtifact(corrupt, etag); err == nil {
		t.Fatal("corrupted artifact passed the etag check")
	}
	// Empty wantETag skips the check but still parses.
	if _, err := DecodeArtifact(data, ""); err != nil {
		t.Fatal(err)
	}
}

// legacyArtifact encodes m as artifacts were written before SVM bodies
// carried a shared support-vector table: indented JSON, each pair holding
// its own support vectors in full ("svs").
func legacyArtifact(tb testing.TB, m *Model) []byte {
	tb.Helper()
	legacy := *m
	if svm, ok := m.Classifier.(*SVM); ok {
		perPair := *svm
		perPair.svRows = nil // without a table, MarshalModel writes per-pair svs
		legacy.Classifier = &perPair
	}
	data, err := MarshalModel(&legacy)
	if err != nil {
		tb.Fatal(err)
	}
	var out bytes.Buffer
	if err := json.Indent(&out, data, "", "  "); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// assertSamePredictions fails unless got decides exactly like want on every
// input: PredictTier's class and tier, PredictExact, and the bits of Scores
// and (for SVMs) of the pairwise DecisionValues.
func assertSamePredictions(tb testing.TB, want, got *Model, inputs [][]float64) {
	tb.Helper()
	for _, x := range inputs {
		wc, wt := want.PredictTier(x)
		gc, gt := got.PredictTier(x)
		if wc != gc || wt != gt {
			tb.Fatalf("PredictTier(%v) = %d/%v, want %d/%v", x, gc, gt, wc, wt)
		}
		if w, g := want.PredictExact(x), got.PredictExact(x); w != g {
			tb.Fatalf("PredictExact(%v) = %d, want %d", x, g, w)
		}
		sameBits(tb, "Scores", x, want.Scores(x), got.Scores(x))
		if wsvm, ok := want.Classifier.(*SVM); ok {
			scaled := x
			if want.Scaler != nil {
				scaled = want.Scaler.Transform(x)
			}
			sameBits(tb, "DecisionValues", x, wsvm.DecisionValues(scaled), got.Classifier.(*SVM).DecisionValues(scaled))
		}
	}
}

func sameBits(tb testing.TB, what string, x, want, got []float64) {
	tb.Helper()
	if len(want) != len(got) {
		tb.Fatalf("%s(%v) has %d values, want %d", what, x, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			tb.Fatalf("%s(%v)[%d] = %v, want %v", what, x, i, got[i], want[i])
		}
	}
}

// TestLegacyArtifactKeepsWorking builds an artifact in the form written
// before the shared support-vector table (indented, per-pair svs) for a
// 3-class SVM with a compiled program whose margin is 5e-324. It must
// decode, decide bit for bit like the trained model, and re-encode to the
// compact form, which is a fixed point.
func TestLegacyArtifactKeepsWorking(t *testing.T) {
	ds := blobs(90, 3, 2, 2.5, 11)
	var scaler Scaler
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := NewSVM(RBFKernel{Gamma: 0.5}, 4)
	if err := svm.Fit(&Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	trained := &Model{Classifier: svm, Scaler: &scaler, Meta: &ModelMeta{Version: 1, TrainedOn: ds.Len()}}
	if trained.Compiled, err = Distill(trained, ds.X, DistillOptions{}); err != nil {
		t.Fatal(err)
	}
	if trained.Compiled.Margin != math.SmallestNonzeroFloat64 || len(trained.Compiled.Nodes) < 3 {
		t.Fatalf("want a multi-node program with margin 5e-324, got %d nodes, margin %g",
			len(trained.Compiled.Nodes), trained.Compiled.Margin)
	}
	if svm.NumSupportVectors() <= svm.NumDistinctSupportVectors() {
		t.Fatalf("pairs share no support vectors (%d in pairs, %d distinct)",
			svm.NumSupportVectors(), svm.NumDistinctSupportVectors())
	}

	legacy := legacyArtifact(t, trained)
	for _, want := range []string{"\n  \"svm\": {", "\"svs\": [\n", "\"margin\": 5e-324"} {
		if !bytes.Contains(legacy, []byte(want)) {
			t.Fatalf("legacy artifact lacks %q:\n%s", want, legacy)
		}
	}
	if bytes.Contains(legacy, []byte(`"sv":`)) {
		t.Fatal("legacy artifact carries table indices")
	}
	decoded, err := UnmarshalModel(legacy)
	if err != nil {
		t.Fatal(err)
	}
	var inputs [][]float64
	for x := -6.0; x <= 22; x += 0.75 {
		for y := -6.0; y <= 22; y += 0.75 {
			inputs = append(inputs, []float64{x, y})
		}
	}
	assertSamePredictions(t, trained, decoded, append(inputs, ds.X...))

	compact, err := MarshalModel(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsAny(compact, "\n ") || !bytes.Contains(compact, []byte(`"svs":[[`)) ||
		!bytes.Contains(compact, []byte(`"margin":5e-324`)) {
		t.Fatalf("re-encoded artifact is not the compact table form:\n%s", compact)
	}
	// fit and the per-pair decoder build the table by the same rule, so
	// the legacy artifact re-encodes to the trained model's own bytes.
	fresh, err := MarshalModel(trained)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(compact, fresh) {
		t.Fatalf("legacy artifact re-encodes to\n%s\nthe trained model encodes to\n%s", compact, fresh)
	}
	again, err := UnmarshalModel(compact)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := MarshalModel(again); err != nil || !bytes.Equal(out, compact) {
		t.Fatalf("compact artifact is not a fixed point (err %v)", err)
	}
	assertSamePredictions(t, trained, again, inputs)
}

// TestSVMTableDecodeErrors: a corrupt support-vector table or pair index
// list is an error, never a panic or a silently shorter model.
func TestSVMTableDecodeErrors(t *testing.T) {
	body := func(table, pair string) []byte {
		return []byte(`{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],` + table +
			`"pairs":[{"a":0,"b":1,` + pair + `"coefs":[1,-1],"rho":0,"iters":1}]}}`)
	}
	const table = `"svs":[[0],[1]],`
	if _, err := UnmarshalModel(body(table, `"sv":[1,0],`)); err != nil {
		t.Fatalf("valid table artifact rejected: %v", err)
	}
	if _, err := UnmarshalModel(body("", `"svs":[[1],[0]],`)); err != nil {
		t.Fatalf("valid per-pair artifact rejected: %v", err)
	}
	for name, blob := range map[string][]byte{
		"index out of range":      body(table, `"sv":[0,2],`),
		"negative index":          body(table, `"sv":[-1,0],`),
		"fewer indices":           body(table, `"sv":[0],`),
		"more indices":            body(table, `"sv":[0,1,1],`),
		"no indices":              body(table, ``),
		"both sv and svs":         body(table, `"sv":[0,1],"svs":[[0],[1]],`),
		"both without table":      body("", `"sv":[0,1],"svs":[[0],[1]],`),
		"svs beside table":        body(table, `"svs":[[0],[1]],`),
		"indices without table":   body("", `"sv":[0,1],`),
		"per-pair fewer vectors":  body("", `"svs":[[0]],`),
		"per-pair more vectors":   body("", `"svs":[[0],[1],[2]],`),
		"per-pair with empty sv":  body("", `"sv":[],"svs":[[0],[1]],`),
		"empty table, with index": body(`"svs":[],`, `"sv":[0,1],`),
	} {
		if m, err := UnmarshalModel(blob); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, m.Classifier)
		}
	}
}

// ensembleArtifact builds an artifact of the removed committee kind in the
// form older releases wrote: an "ensemble" envelope whose members are
// ordinary single-classifier envelopes, plus the program distilled from it.
func ensembleArtifact(tb testing.TB) []byte {
	tb.Helper()
	raw, scaled, scaler := fitTinyDataset(tb)
	var members []json.RawMessage
	for _, clf := range parityClassifiers(tb) {
		data, err := MarshalModel(&Model{Classifier: clf})
		if err != nil {
			tb.Fatal(err)
		}
		members = append(members, data)
	}
	svm := NewSVM(RBFKernel{Gamma: 0.5}, 4)
	if err := svm.Fit(scaled); err != nil {
		tb.Fatal(err)
	}
	compiled, err := Distill(&Model{Classifier: svm, Scaler: scaler}, raw.X, DistillOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	data, err := json.Marshal(map[string]any{
		"kind":   "ensemble",
		"meta":   ModelMeta{Version: 1, TrainedOn: raw.Len()},
		"scaler": scaler,
		"ensemble": map[string]any{
			"folds": 2, "seed": 7, "classes": []int{0, 1},
			"weights": []float64{0.25, 0.25, 0.25, 0.25},
			"calib":   []map[string]any{{"lo": 0.8, "hi": 1, "n": 10, "correct": 10}},
			"members": members,
		},
		"compiled": compiled,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// TestEnsembleSerializationGuards: every artifact of the removed committee
// kind, well formed or not, fails to decode with an error that names the
// removal, rather than loading as some other classifier.
func TestEnsembleSerializationGuards(t *testing.T) {
	blobs := map[string][]byte{"well formed": ensembleArtifact(t)}
	for name, blob := range map[string]string{
		"missing body":    `{"kind":"ensemble"}`,
		"no members":      `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[]}}`,
		"corrupt member":  `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"svm"}]}}`,
		"nested member":   `{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"ensemble","ensemble":{"members":[{"kind":"knn","knn":{"k":1}}]}}]}}`,
		"weight mismatch": `{"kind":"ensemble","ensemble":{"classes":[0,1],"weights":[0.5],"members":[{"kind":"knn","knn":{"k":1}},{"kind":"knn","knn":{"k":1}}]}}`,
	} {
		blobs[name] = []byte(blob)
	}
	for name, data := range blobs {
		if _, err := UnmarshalModel(data); !errors.Is(err, ErrEnsembleRemoved) {
			t.Errorf("%s: UnmarshalModel: %v, want ErrEnsembleRemoved", name, err)
		}
		_, err := DecodeArtifact(data, ETagOf(data))
		if !errors.Is(err, ErrEnsembleRemoved) || !strings.Contains(err.Error(), "removed") {
			t.Errorf("%s: DecodeArtifact: %v, want an error naming the removal", name, err)
		}
	}
}

// TestCompiledMarginDecodesLikeJSON: the margin literal 5e-324 skips
// strconv's subnormal slow path; every literal must still decode to what
// encoding/json gives a float64, in value and in error.
func TestCompiledMarginDecodesLikeJSON(t *testing.T) {
	if f, err := strconv.ParseFloat("5e-324", 64); err != nil || f != math.SmallestNonzeroFloat64 {
		t.Fatalf("ParseFloat(5e-324) = %v, %v", f, err)
	}
	for _, lit := range marginLiterals {
		var want float64
		wantErr := json.Unmarshal([]byte(lit), &want)

		var m compiledMargin
		err := json.Unmarshal([]byte(lit), &m)
		if math.Float64bits(float64(m)) != math.Float64bits(want) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("margin %s decodes to %v (err %v), encoding/json gives %v (err %v)", lit, float64(m), err, want, wantErr)
		}

		var c Compiled
		err = json.Unmarshal([]byte(`{"nodes":[{"f":0,"l":-1,"r":-1,"c":0,"t":0}],"classes":[1],"dim":1,"margin":`+lit+`}`), &c)
		if math.Float64bits(c.Margin) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Errorf("compiled margin %s decodes to %v (err %v), encoding/json gives %v (err %v)", lit, c.Margin, err, want, wantErr)
		}
		if err == nil && (len(c.Nodes) != 1 || c.Dim != 1 || len(c.Classes) != 1 || c.Classes[0] != 1) {
			t.Errorf("margin %s: other fields lost: %+v", lit, c)
		}
	}
}

// marginLiterals are the compiled margins the decoder tests and the fuzz
// seeds cover: the fast-path literal, another spelling of the same value,
// another subnormal, normal values, null and a quoted string.
var marginLiterals = []string{`5e-324`, `4.9406564584124654e-324`, `1e-320`, `0`, `0.01`, `null`, `"0.01"`}

// TestCheckShape: a model fits a function when its fitted scaler expects
// the function's feature count and every label, the classifier's and the
// compiled program's, names one of its variants; a zero count skips its
// check.
func TestCheckShape(t *testing.T) {
	ds := blobs(12, 2, 3, 0.1, 3) // labels 0 and 1, three features
	var scaler Scaler
	scaled, err := scaler.FitTransform(ds.X)
	if err != nil {
		t.Fatal(err)
	}
	svm := NewSVM(LinearKernel{}, 1)
	if err := svm.Fit(&Dataset{X: scaled, Y: ds.Y}); err != nil {
		t.Fatal(err)
	}
	m := &Model{Classifier: svm, Scaler: &scaler}
	compiled := &Model{Classifier: svm, Scaler: &scaler, Compiled: &Compiled{Classes: []int{0, 5}}}
	for _, tc := range []struct {
		m                  *Model
		features, variants int
		ok                 bool
	}{
		{m, 3, 2, true},
		{m, 0, 0, true},
		{m, 2, 2, false},
		{m, 4, 0, false},
		{m, 3, 1, false},
		{m, 0, 1, false},
		{compiled, 3, 6, true},
		{compiled, 3, 5, false},
		{&Model{Classifier: svm}, 7, 2, true}, // no scaler, nothing to compare
	} {
		if err := tc.m.CheckShape(tc.features, tc.variants); (err == nil) != tc.ok {
			t.Errorf("CheckShape(%d, %d) = %v, want ok=%v", tc.features, tc.variants, err, tc.ok)
		}
	}
}
