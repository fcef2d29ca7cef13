package ml

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
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
// input: PredictTier's class and tier, PredictExact, RankedClasses, and the
// bits of Scores and (for SVMs) of the pairwise DecisionValues.
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
		if w, g := want.RankedClasses(x), got.RankedClasses(x); !slices.Equal(w, g) {
			tb.Fatalf("RankedClasses(%v) = %v, want %v", x, g, w)
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

// removedKindArtifact reads the artifact of a removed kind ("knn", "tree" or
// "logistic") that the last release to serve it wrote: that classifier fitted
// on fitTinyDataset, behind its scaler, stamped version 7.
func removedKindArtifact(tb testing.TB, kind string) []byte {
	tb.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "removed", kind+".json"))
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.TrimSpace(data)
}

// ensembleArtifact builds an artifact of the removed committee kind in the
// form older releases wrote: an "ensemble" envelope whose members are
// ordinary single-classifier envelopes, plus the program distilled from it.
func ensembleArtifact(tb testing.TB) []byte {
	tb.Helper()
	raw, scaled, scaler := fitTinyDataset(tb)
	svm := NewSVM(RBFKernel{Gamma: 0.5}, 4)
	if err := svm.Fit(scaled); err != nil {
		tb.Fatal(err)
	}
	member, err := MarshalModel(&Model{Classifier: svm})
	if err != nil {
		tb.Fatal(err)
	}
	members := []json.RawMessage{member}
	for _, kind := range []string{"knn", "tree", "logistic"} {
		members = append(members, removedKindArtifact(tb, kind))
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
// kind, well formed or not, fails to decode with the removed-kind error
// naming "ensemble", rather than loading as some other classifier.
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
		if _, err := UnmarshalModel(data); !errors.Is(err, ErrKindRemoved) {
			t.Errorf("%s: UnmarshalModel: %v, want ErrKindRemoved", name, err)
		}
		_, err := DecodeArtifact(data, ETagOf(data))
		if !errors.Is(err, ErrKindRemoved) || !strings.Contains(err.Error(), `"ensemble"`) {
			t.Errorf("%s: DecodeArtifact: %v, want the removed-kind error naming the kind", name, err)
		}
	}
}

// TestRemovedKindsRefused: bare or malformed envelopes of the knn, tree and
// logistic kinds fail to decode with the removed-kind error naming the kind
// (TestMetaStampingParity checks the artifacts the last release to serve
// those classifiers wrote). An SVM with the removed polynomial kernel, in
// either form, fails as an unknown kernel.
func TestRemovedKindsRefused(t *testing.T) {
	for _, kind := range []string{"knn", "tree", "logistic"} {
		for name, data := range map[string][]byte{
			"bare":      []byte(`{"kind":"` + kind + `"}`),
			"malformed": []byte(`{"kind":"` + kind + `","` + kind + `":{"classes":"x"},"compiled":{"nodes":[]}}`),
		} {
			_, err := DecodeArtifact(data, ETagOf(data))
			if !errors.Is(err, ErrKindRemoved) || !strings.Contains(err.Error(), `"`+kind+`"`) {
				t.Errorf("%s %s: %v, want the removed-kind error naming the kind", name, kind, err)
			}
		}
	}
	for _, file := range []string{"poly.json", "poly.nma"} {
		data, err := os.ReadFile(filepath.Join("testdata", "removed", file))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalModel(data); err == nil || !strings.Contains(err.Error(), "unknown kernel") {
			t.Errorf("%s: %v, want an unknown-kernel error", file, err)
		}
	}
}

// TestCompiledMarginDecodesLikeJSON: every margin literal, 5e-324 among
// them, decodes in a compiled program to what encoding/json gives a
// float64, in value and in error.
func TestCompiledMarginDecodesLikeJSON(t *testing.T) {
	if f, err := strconv.ParseFloat("5e-324", 64); err != nil || f != math.SmallestNonzeroFloat64 {
		t.Fatalf("ParseFloat(5e-324) = %v, %v", f, err)
	}
	for _, lit := range marginLiterals {
		var want float64
		wantErr := json.Unmarshal([]byte(lit), &want)

		var c Compiled
		err := json.Unmarshal([]byte(`{"nodes":[{"f":0,"l":-1,"r":-1,"c":0,"t":0}],"classes":[1],"dim":1,"margin":`+lit+`}`), &c)
		if math.Float64bits(c.Margin) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Errorf("compiled margin %s decodes to %v (err %v), encoding/json gives %v (err %v)", lit, c.Margin, err, want, wantErr)
		}
		if err == nil && (len(c.Nodes) != 1 || c.Dim != 1 || len(c.Classes) != 1 || c.Classes[0] != 1) {
			t.Errorf("margin %s: other fields lost: %+v", lit, c)
		}
	}
}

// marginLiterals are the compiled margins the decoder tests and the fuzz
// seeds cover: the margin Distill writes when no corpus point disagrees,
// another spelling of the same value, another subnormal, normal values,
// null and a quoted string.
var marginLiterals = []string{`5e-324`, `4.9406564584124654e-324`, `1e-320`, `0`, `0.01`, `null`, `"0.01"`}

// TestCheckShape: a model fits a function when its fitted scaler, its
// compiled program and its classifier's body all expect the function's
// feature count, the program as many as the scaler, and every label, the
// classifier's and the compiled program's, names one of its variants; a
// zero count skips its check. The bodies decoded from JSON below each
// decode, and each made a prediction on a 2-feature vector panic before
// CheckShape looked inside the classifier.
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
	svm2 := NewSVM(LinearKernel{}, 1)
	if err := svm2.Fit(&Dataset{X: [][]float64{{0, 0}, {1, 1}}, Y: []int{0, 1}}); err != nil {
		t.Fatal(err)
	}
	m := &Model{Classifier: svm, Scaler: &scaler}
	compiled := &Model{Classifier: svm, Scaler: &scaler, Compiled: &Compiled{Classes: []int{0, 5}, Dim: 3}}
	narrow := &Model{Classifier: svm, Scaler: &scaler, Compiled: &Compiled{Classes: []int{0, 1}, Dim: 2}}
	unscaled := &Model{Classifier: svm2, Compiled: &Compiled{Classes: []int{0, 1}, Dim: 2}}
	decode := func(body string) *Model {
		t.Helper()
		m, err := UnmarshalModel([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return m
	}
	svmBody := func(scaler, svs string) *Model {
		return decode(`{"kind":"svm",` + scaler + `"svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":` + svs +
			`,"pairs":[{"a":0,"b":1,"sv":[0,1],"coefs":[1,-1],"rho":0,"iters":1}]}}`)
	}
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
		{narrow, 3, 2, false}, // program narrower than the function and the scaler
		{narrow, 0, 2, false}, // program narrower than the scaler
		{unscaled, 2, 2, true},
		{unscaled, 1, 2, false},                // a 2-feature program on a 1-feature function
		{&Model{Classifier: svm}, 3, 2, true},  // no scaler: the support vectors set the width
		{&Model{Classifier: svm}, 7, 2, false}, // 3-wide support vectors on a 7-feature function
		{svmBody(`"scaler":{"min":[0,0],"max":[3,3]},`, `[[0,0],[1,1]]`), 2, 2, true},
		{svmBody(`"scaler":{"min":[0,0],"max":[3]},`, `[[0,0],[1,1]]`), 2, 2, false}, // max narrower than min
		{svmBody(``, `[[0,0,0],[1,1]]`), 2, 2, false},                                // a 3-wide support vector
	} {
		if err := tc.m.CheckShape(tc.features, tc.variants); (err == nil) != tc.ok {
			t.Errorf("CheckShape(%d, %d) = %v, want ok=%v", tc.features, tc.variants, err, tc.ok)
		}
	}
}

// Little-endian field writers for hand-built binary artifacts.
func le32(v uint32) []byte    { return binary.LittleEndian.AppendUint32(nil, v) }
func le64(v int64) []byte     { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
func bits(v float64) []byte   { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }
func cat(bs ...[]byte) []byte { return bytes.Join(bs, nil) }

// binaryParts are the fields, in layout order, of a binary artifact for a
// linear 2-class SVM over a 2-row, 1-wide support-vector table with one
// pair, and no meta, scaler or compiled program. A test replaces parts to
// build other artifacts.
type binaryParts struct {
	magic, meta, scaler, kernel, c, classes, table, pairs, compiled []byte
}

func baseBinaryParts() binaryParts {
	return binaryParts{
		magic:    []byte("NMA1"),
		meta:     []byte{0},
		scaler:   []byte{0},
		kernel:   []byte{1},
		c:        bits(1),
		classes:  cat(le32(2), le64(0), le64(1)),
		table:    cat(le32(2), le32(1), bits(0), bits(1)),
		pairs:    onePairs([]uint32{1, 0}, []float64{1, -1}),
		compiled: []byte{0},
	}
}

func (p binaryParts) bytes() []byte {
	return cat(p.magic, p.meta, p.scaler, p.kernel, p.c, p.classes, p.table, p.pairs, p.compiled)
}

// onePairs is a pairs part with one pair, 0 against 1 with rho 0.25 after
// 3 iterations, carrying ids and coefs.
func onePairs(ids []uint32, coefs []float64) []byte {
	b := cat(le32(1), le64(0), le64(1), bits(0.25), le64(3), le32(uint32(len(ids))))
	for _, id := range ids {
		b = append(b, le32(id)...)
	}
	b = append(b, le32(uint32(len(coefs)))...)
	for _, c := range coefs {
		b = append(b, bits(c)...)
	}
	return b
}

// compiledPart is a compiled-program part: one split on feature 0 at
// threshold over two leaves, the labels in classes, and the margin.
func compiledPart(threshold float64, classes []int64, margin float64) []byte {
	b := cat([]byte{1}, le32(3),
		le32(0), le32(1), le32(2), le32(0xffffffff), bits(threshold),
		le32(0), le32(0xffffffff), le32(0xffffffff), le32(0), bits(0),
		le32(0), le32(0xffffffff), le32(0xffffffff), le32(1), bits(0),
		le32(uint32(len(classes))))
	for _, c := range classes {
		b = append(b, le64(c)...)
	}
	return cat(b, le64(1), bits(margin), bits(1), bits(0), le64(2))
}

// TestBinaryArtifactLayout pins the binary form: a JSON artifact's model
// re-encodes to the hand-built bytes of the layout, those bytes decode to
// the same model, and the form round-trips the meta stamp, the scaler, the
// compiled program and a 5e-324 margin exactly.
func TestBinaryArtifactLayout(t *testing.T) {
	base := baseBinaryParts()
	fromJSON, err := UnmarshalModel([]byte(`{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],` +
		`"svs":[[0],[1]],"pairs":[{"a":0,"b":1,"sv":[1,0],"coefs":[1,-1],"rho":0.25,"iters":3}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	data, etag, err := EncodeArtifact(fromJSON)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, base.bytes()) || etag != ETagOf(data) {
		t.Fatalf("EncodeArtifact wrote\n%x\nthe layout is\n%x", data, base.bytes())
	}
	decoded, err := UnmarshalModel(data)
	if err != nil {
		t.Fatal(err)
	}
	assertSamePredictions(t, fromJSON, decoded, [][]float64{{-1}, {0}, {0.5}, {1}, {2}})

	full := base
	created := time.Date(2026, 10, 19, 13, 9, 8, 123456789, time.UTC)
	full.meta = cat([]byte{1}, le64(7), le64(created.Unix()), le32(123456789), le64(40))
	full.scaler = cat([]byte{1}, le32(1), bits(-2), bits(6))
	full.compiled = compiledPart(0.5, []int64{0, 1}, math.SmallestNonzeroFloat64)
	m, err := UnmarshalModel(full.bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta == nil || m.Meta.Version != 7 || m.Meta.TrainedOn != 40 || !m.Meta.CreatedAt.Equal(created) {
		t.Fatalf("meta = %+v", m.Meta)
	}
	if !slices.Equal(m.Scaler.Min, []float64{-2}) || !slices.Equal(m.Scaler.Max, []float64{6}) {
		t.Fatalf("scaler = %+v", m.Scaler)
	}
	if c := m.Compiled; len(c.Nodes) != 3 || c.Margin != math.SmallestNonzeroFloat64 || c.Dim != 1 || c.CorpusSize != 2 {
		t.Fatalf("compiled = %+v", c)
	}
	again, _, err := EncodeArtifact(m)
	if err != nil || !bytes.Equal(again, full.bytes()) {
		t.Fatalf("full artifact is not a fixed point (err %v)", err)
	}
	viaJSON, err := MarshalModel(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalModel(viaJSON)
	if err != nil {
		t.Fatal(err)
	}
	if out, _, err := EncodeArtifact(back); err != nil || !bytes.Equal(out, full.bytes()) {
		t.Fatalf("binary -> JSON -> binary changed the artifact (err %v)", err)
	}
}

// TestBinaryArtifactDecodeErrors: every body the canonical layout does not
// allow is an error, never a panic or a model that re-encodes differently.
func TestBinaryArtifactDecodeErrors(t *testing.T) {
	if _, err := UnmarshalModel(baseBinaryParts().bytes()); err != nil {
		t.Fatalf("base artifact rejected: %v", err)
	}
	base := baseBinaryParts().bytes()
	bad := map[string][]byte{
		"magic prefix": []byte("NMA"),
		"only magic":   []byte("NMA1"),
		"wrong magic":  append([]byte("NMA2"), base[4:]...),
		"short body":   base[:len(base)-1],
		"long body":    append(bytes.Clone(base), 0),
		"class counts": cat(base[:15], le32(1000), base[19:]),
	}
	edit := func(name string, f func(p *binaryParts)) {
		p := baseBinaryParts()
		f(&p)
		bad[name] = p.bytes()
	}
	edit("meta flag 2", func(p *binaryParts) { p.meta = []byte{2} })
	edit("scaler flag 2", func(p *binaryParts) { p.scaler = []byte{2} })
	edit("compiled flag 2", func(p *binaryParts) { p.compiled = []byte{2} })
	edit("kernel kind 3", func(p *binaryParts) { p.kernel = []byte{3} })
	edit("NaN C", func(p *binaryParts) { p.c = bits(math.NaN()) })
	edit("+Inf support-vector value", func(p *binaryParts) { p.table = cat(le32(2), le32(1), bits(0), bits(math.Inf(1))) })
	edit("-Inf coefficient", func(p *binaryParts) { p.pairs = onePairs([]uint32{1, 0}, []float64{1, math.Inf(-1)}) })
	edit("NaN scaler bound", func(p *binaryParts) { p.scaler = cat([]byte{1}, le32(1), bits(0), bits(math.NaN())) })
	edit("index outside the table", func(p *binaryParts) { p.pairs = onePairs([]uint32{2, 0}, []float64{1, -1}) })
	edit("fewer coefficients", func(p *binaryParts) { p.pairs = onePairs([]uint32{1, 0}, []float64{1}) })
	edit("more coefficients", func(p *binaryParts) { p.pairs = onePairs([]uint32{1}, []float64{1, -1}) })
	edit("rows without width", func(p *binaryParts) { p.table = cat(le32(2), le32(0)) })
	edit("width without rows", func(p *binaryParts) {
		p.table = cat(le32(0), le32(1))
		p.pairs = onePairs(nil, nil)
	})
	edit("nanoseconds past a second", func(p *binaryParts) {
		p.meta = cat([]byte{1}, le64(1), le64(0), le32(1e9), le64(0))
	})
	edit("year 10000", func(p *binaryParts) {
		p.meta = cat([]byte{1}, le64(1), le64(time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()), le32(0), le64(0))
	})
	edit("compiled class out of range", func(p *binaryParts) { p.compiled = compiledPart(0.5, []int64{0}, 0) })
	edit("compiled NaN threshold", func(p *binaryParts) { p.compiled = compiledPart(math.NaN(), []int64{0, 1}, 0) })
	edit("compiled Inf margin", func(p *binaryParts) { p.compiled = compiledPart(0.5, []int64{0, 1}, math.Inf(1)) })
	edit("compiled negative margin", func(p *binaryParts) { p.compiled = compiledPart(0.5, []int64{0, 1}, -1) })
	for name, data := range bad {
		if m, err := UnmarshalModel(data); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", name, m)
		}
	}
}

// TestBinaryArtifactDecodeAllocationBound: a 27-byte body whose header
// claims 2^31 support vectors, or one claiming 2^31 pairs, is rejected
// before the decoder allocates for them.
func TestBinaryArtifactDecodeAllocationBound(t *testing.T) {
	head := cat([]byte("NMA1"), []byte{0, 0, 1}, bits(1), le32(0))
	for name, body := range map[string][]byte{
		"support vectors": cat(head, le32(1<<31), le32(1)),
		"pairs":           cat(head, le32(0), le32(0), le32(1<<31)),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			if _, err := UnmarshalModel(body); err == nil {
				t.Fatalf("%s: accepted a body whose count it cannot hold", name)
			}
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: 100 rejected %d-byte bodies allocated %d bytes", name, len(body), grew)
		}
	}
}

// TestEncodeArtifactRefusesWhatJSONCannotCarry: a model the binary form
// cannot carry, like one JSON cannot, fails to encode instead of writing an
// artifact that does not decode. So does a model whose classifier is not an
// SVM, in both forms.
func TestEncodeArtifactRefusesWhatJSONCannotCarry(t *testing.T) {
	decode := func(body string) *Model {
		t.Helper()
		m, err := UnmarshalModel([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	svm := decode(`{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":[[0],[1]],"pairs":[{"a":0,"b":1,"sv":[1,0],"coefs":[1,-1],"rho":0,"iters":1}]}}`)
	nan := *svm
	nanSVM := *svm.Classifier.(*SVM)
	nanSVM.C = math.NaN()
	nan.Classifier = &nanSVM
	late := *svm
	late.Meta = &ModelMeta{CreatedAt: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}
	for name, m := range map[string]*Model{
		"NaN C":            &nan,
		"year 10000":       &late,
		"ragged table":     decode(`{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":[[0],[1,1]],"pairs":[{"a":0,"b":1,"sv":[1,0],"coefs":[1,-1],"rho":0,"iters":1}]}}`),
		"unequal scaler":   decode(`{"kind":"svm","scaler":{"min":[0,0],"max":[1]},"svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"pairs":[]}}`),
		"nil model":        nil,
		"nil classifier":   {},
		"invalid compiled": {Classifier: svm.Classifier, Compiled: &Compiled{Dim: 1}},
		"non-SVM":          {Classifier: &tiedClassifier{classes: []int{0, 1}}},
	} {
		if data, _, err := EncodeArtifact(m); err == nil {
			t.Errorf("%s: encoded to %x", name, data)
		}
	}
	notSVM := &Model{Classifier: &tiedClassifier{classes: []int{0, 1}}}
	if data, err := MarshalModel(notSVM); err == nil || !strings.Contains(err.Error(), `"tied"`) {
		t.Errorf("non-SVM model marshalled to %s (err %v), want an error naming its kind", data, err)
	}
}
