package ml_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"nitro/internal/ml"
)

// FuzzUnmarshalModel asserts the model deserializer is total over both
// artifact forms: arbitrary bytes must produce either a model or an error,
// never a panic. A model that deserializes must round-trip through JSON to a
// fixed point (marshal ∘ unmarshal is idempotent, so nothing is silently
// lost or mutated). A binary input it accepts must be canonical: it
// re-encodes to its own bytes. And a model that passes CheckShape for a
// width must predict on vectors of that width without panicking.
func FuzzUnmarshalModel(f *testing.F) {
	seeds := ml.FuzzSeedModels(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	// The distilled SVM seed again, in the per-pair form artifacts had
	// before the shared support-vector table.
	withCompiled, err := ml.UnmarshalModel(seeds[len(seeds)-1])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ml.LegacyArtifact(f, withCompiled))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"kind":"svm"}`))
	// Artifacts of the removed kinds, as the last release to serve them
	// wrote them and hand-made, which the decoder refuses; and an SVM with
	// the removed polynomial kernel in both forms.
	for _, kind := range []string{"knn", "tree", "logistic"} {
		f.Add(ml.RemovedKindArtifact(f, kind))
	}
	for _, file := range []string{"poly.json", "poly.nma"} {
		data, err := os.ReadFile(filepath.Join("testdata", "removed", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"kind":"knn","meta":{"version":2,"created_at":"2026-08-06T00:00:00Z","trained_on":7},"knn":{"k":1}}`))
	f.Add([]byte(`{"kind":"knn","meta":{},"knn":{"k":1}}`))
	f.Add([]byte(`{"kind":"knn","knn":{"k":-1}}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"kind":"tree","tree":{"root":{"leaf":true}}}`))
	// Artifacts of the removed ensemble kind, well formed and not, which
	// the decoder rejects whatever their members hold.
	f.Add(ml.EnsembleArtifact(f))
	f.Add([]byte(`{"kind":"ensemble"}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"svm"}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"members":[{"kind":"wat"}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0],"members":[{"kind":"ensemble","ensemble":{"members":[{"kind":"knn","knn":{"k":1}}]}}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"weights":[1],"members":[{"kind":"knn","knn":{"k":1}},{"kind":"tree","tree":{"root":null}}]}}`))
	f.Add([]byte(`{"kind":"ensemble","ensemble":{"classes":[0,1],"weights":[0.5,0.5],"calib":[{"lo":0,"hi":0.5,"n":3,"correct":1}],"members":[{"kind":"knn","knn":{"k":1,"x":[[0],[1]],"y":[0,1]}},{"kind":"logistic","logistic":{"lr":0.5,"l2":0.001,"iters":10,"w":[[0,0],[0,0]],"classes":[0,1]}}]}}`))
	// Compiled-artifact seeds over a one-feature SVM: a minimal valid
	// program, a looping program (must be rejected), and a grid with a bad
	// cell table.
	const svm1 = `"svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":[[0],[1]],"pairs":[{"a":0,"b":1,"sv":[1,0],"coefs":[1,-1],"rho":0,"iters":1}]}`
	f.Add([]byte(`{"kind":"svm",` + svm1 + `,"compiled":{"nodes":[{"f":0,"l":1,"r":2,"c":-1,"t":0.5},{"f":0,"l":-1,"r":-1,"c":0,"t":0},{"f":0,"l":-1,"r":-1,"c":1,"t":0}],"classes":[0,1],"dim":1,"margin":0.01,"agreement":1,"fallback_rate":0,"corpus_size":2}}`))
	f.Add([]byte(`{"kind":"svm",` + svm1 + `,"compiled":{"nodes":[{"f":0,"l":0,"r":0,"c":-1,"t":0.5}],"classes":[0],"dim":1,"margin":0.01}}`))
	f.Add([]byte(`{"kind":"svm",` + svm1 + `,"compiled":{"nodes":[{"f":0,"l":-1,"r":-1,"c":0,"t":0}],"classes":[0],"dim":1,"margin":0,"grid":{"res":2,"lo":[0],"hi":[1],"cells":[0,0,0]}}}`))
	// Margin seeds: the 5e-324 margin Distill writes and other literals.
	for _, lit := range ml.MarginLiterals {
		f.Add([]byte(`{"kind":"svm",` + svm1 + `,"compiled":{"nodes":[{"f":0,"l":-1,"r":-1,"c":0,"t":0}],"classes":[0],"dim":1,"margin":` + lit + `}}`))
	}
	// SVM table seeds: a valid table, then an out-of-range and a negative
	// index, a length mismatch and a pair carrying both forms.
	for _, pair := range []string{`"sv":[1,0]`, `"sv":[0,2]`, `"sv":[-1,0]`, `"sv":[0]`, `"sv":[0,1],"svs":[[0],[1]]`} {
		f.Add([]byte(`{"kind":"svm","svm":{"c":1,"kernel":{"kind":"linear"},"classes":[0,1],"svs":[[0],[1]],"pairs":[{"a":0,"b":1,` + pair + `,"coefs":[1,-1],"rho":0,"iters":1}]}}`))
	}
	// Binary seeds: each suite's artifact as the registry stores it, then
	// truncations and bit flips of one.
	var bin []byte
	for _, s := range tunedSuites(f) {
		if bin, _, err = ml.EncodeArtifact(s.model); err != nil {
			f.Fatal(err)
		}
		f.Add(bin)
	}
	for _, n := range []int{len(bin) - 1, len(bin) / 2, 9, 4, 3} {
		f.Add(bin[:n])
	}
	for _, i := range []int{4, 5, 6, len(bin) / 3, len(bin) / 2, len(bin) - 20, len(bin) - 1} {
		flipped := bytes.Clone(bin)
		flipped[i] ^= 0x82
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ml.UnmarshalModel(data) // must never panic
		if err != nil {
			return
		}
		if bytes.HasPrefix(data, []byte("NMA")) {
			again, _, err := ml.EncodeArtifact(m)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("binary artifact is not canonical (err %v):\nin:  %x\nout: %x", err, data, again)
			}
		}
		out1, err := ml.MarshalModel(m)
		if err != nil {
			// A deserialized model that cannot re-serialize would lose the
			// artifact on the next save.
			t.Fatalf("deserialized model failed to marshal: %v", err)
		}
		m2, err := ml.UnmarshalModel(out1)
		if err != nil {
			t.Fatalf("re-serialized model failed to parse: %v", err)
		}
		out2, err := ml.MarshalModel(m2)
		if err != nil {
			t.Fatalf("second marshal failed: %v", err)
		}
		if !bytes.Equal(out1, out2) {
			t.Fatalf("round trip is not a fixed point:\nfirst:  %s\nsecond: %s", out1, out2)
		}
		// Whatever EncodeArtifact writes is binary, decodes and is canonical.
		if enc, _, err := ml.EncodeArtifact(m); err == nil {
			if !bytes.HasPrefix(enc, []byte("NMA1")) {
				t.Fatalf("encoded artifact is not binary: %q", enc)
			}
			back, err := ml.UnmarshalModel(enc)
			if err != nil {
				t.Fatalf("encoded artifact failed to decode: %v\n%x", err, enc)
			}
			if again, _, err := ml.EncodeArtifact(back); err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("encoded artifact is not a fixed point (err %v)", err)
			}
		}
		predictAtCheckedWidths(t, m)
	})
}

// predictAtCheckedWidths runs PredictTier, PredictExact and RankedClasses
// on a few vectors of every width CheckShape accepts m at (among 1 to 4,
// the scaler's and the compiled program's), so a panic fails the fuzzer.
func predictAtCheckedWidths(t *testing.T, m *ml.Model) {
	widths := []int{1, 2, 3, 4}
	if m.Scaler != nil {
		widths = append(widths, len(m.Scaler.Min))
	}
	if m.Compiled != nil {
		widths = append(widths, m.Compiled.Dim)
	}
	vals := []float64{0, 1, -1, 0.5, 1e6, -1e6, math.SmallestNonzeroFloat64}
	for _, w := range widths {
		if w < 1 || w > 64 || m.CheckShape(w, 0) != nil {
			continue
		}
		for i := range vals {
			x := make([]float64, w)
			for j := range x {
				x[j] = vals[(i+j)%len(vals)]
			}
			m.PredictTier(x)
			m.PredictExact(x)
			m.RankedClasses(x)
		}
	}
}
