// Command nitro-model inspects a model file: the JSON written by
// cmd/nitro-tune or Context.SaveModel, or a binary artifact from a registry
// data dir (<tenant>/<fn>/v000001.model), told apart by its magic. It prints
// the classifier kind, label set, scaler ranges and — for SVMs — the kernel
// parameters and support-vector count, and can classify a feature vector
// from the command line.
//
// Usage:
//
//	nitro-model -model spmv.model.json
//	nitro-model -model spmv.model.json -json
//	nitro-model -model spmv.model.json -predict "12.5,3.1,88,1.2,1.0"
//	nitro-model -model spmv.model.json -predict-file vectors.txt -parallelism 0
//	nitro-model -model spmv.model.json -explain "12.5,3.1,88,1.2,1.0"
//
// -predict-file reads one comma-separated feature vector per line (blank
// lines and '#' comments skipped) and classifies the batch, fanning the
// predictions over -parallelism workers; model prediction is read-only and
// safe to share, so the output is identical at every worker count.
//
// -explain prints the full decision derivation for one feature vector: the
// raw and scaled features, every class score, the pairwise SVM decision
// values, and the ranked preference order — the exact fallback chain the
// deployment runtime walks when the predicted variant is vetoed, quarantined
// or fails. The derivation reuses the scoring paths dispatch itself uses, so
// the printed order is the order Call would try.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"nitro/internal/ml"
	"nitro/internal/par"
)

// options holds the parsed command line.
type options struct {
	Model       string
	Predict     string
	PredictFile string
	Explain     string
	Parallelism int
	JSON        bool
}

// errBadFlags is wrapped by every flag-validation failure so tests can detect
// rejected invocations with errors.Is.
var errBadFlags = errors.New("invalid flags")

// validate rejects nonsensical invocations before any file is touched.
func (o options) validate() error {
	if o.Model == "" {
		return fmt.Errorf("%w: -model is required", errBadFlags)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("%w: -parallelism %d must be >= 0 (0 = all cores)", errBadFlags, o.Parallelism)
	}
	if o.JSON && (o.Predict != "" || o.PredictFile != "" || o.Explain != "") {
		return fmt.Errorf("%w: -json is a summary-only mode (drop -predict/-predict-file/-explain)", errBadFlags)
	}
	return nil
}

func main() {
	var opts options
	flag.StringVar(&opts.Model, "model", "", "path to a model file, JSON or a binary registry artifact (required)")
	flag.StringVar(&opts.Predict, "predict", "", "comma-separated feature vector to classify")
	flag.StringVar(&opts.PredictFile, "predict-file", "", "file with one comma-separated feature vector per line to classify as a batch")
	flag.StringVar(&opts.Explain, "explain", "", "comma-separated feature vector to explain: scaled features, class scores, pairwise SVM decisions and the ranked fallback order")
	flag.IntVar(&opts.Parallelism, "parallelism", 0, "worker count for batch prediction (0 = all cores, 1 = serial); output is identical at every setting")
	flag.BoolVar(&opts.JSON, "json", false, "print a machine-readable model summary (classifier, classes, feature count, provenance metadata) instead of the textual inspection")
	flag.Parse()
	if opts.Model == "" {
		fmt.Fprintln(os.Stderr, "usage: nitro-model -model file [-predict \"1,2,3\"] [-predict-file vectors.txt]")
		os.Exit(2)
	}
	if err := run(opts, os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes one nitro-model invocation: validate flags, load and inspect
// the model, optionally classify a vector and/or a batch file.
func run(opts options, out io.Writer) error {
	if err := opts.validate(); err != nil {
		return err
	}
	data, err := os.ReadFile(opts.Model)
	if err != nil {
		return fmt.Errorf("read model: %w", err)
	}
	if opts.JSON {
		return inspectJSON(data, out)
	}
	if err := inspect(data, opts.Predict, out); err != nil {
		return err
	}
	if opts.Explain != "" {
		if err := explain(data, opts.Explain, out); err != nil {
			return err
		}
	}
	if opts.PredictFile != "" {
		batch, err := os.ReadFile(opts.PredictFile)
		if err != nil {
			return fmt.Errorf("read predict-file: %w", err)
		}
		if err := predictBatch(data, string(batch), opts.Parallelism, out); err != nil {
			return err
		}
	}
	return nil
}

// inspect parses a serialized model, writes its summary and optionally a
// prediction for the given feature vector.
func inspect(data []byte, predict string, out io.Writer) error {
	model, err := ml.UnmarshalModel(data)
	if err != nil {
		return fmt.Errorf("parse model: %w", err)
	}
	fmt.Fprintf(out, "classifier: %s\n", model.Classifier.Name())
	fmt.Fprintf(out, "classes (variant labels): %v\n", model.Classifier.Classes())
	if model.Scaler != nil && model.Scaler.Fitted() {
		fmt.Fprintf(out, "features: %d (scaled to [-1,1])\n", len(model.Scaler.Min))
		for j := range model.Scaler.Min {
			fmt.Fprintf(out, "  feature %d range [%g, %g]\n", j, model.Scaler.Min[j], model.Scaler.Max[j])
		}
	} else {
		fmt.Fprintln(out, "no scaler (raw features)")
	}
	if svm, ok := model.Classifier.(*ml.SVM); ok {
		fmt.Fprintf(out, "svm: C=%g kernel=%s, %d support vectors\n",
			svm.C, describeKernel(svm.Kernel()), svm.NumSupportVectors())
	}
	if c := model.Compiled; c != nil {
		fmt.Fprintf(out, "compiled dispatch: %d nodes depth %d, agreement %.2f%%, exact fallback %.1f%%, margin %g (corpus %d)\n",
			len(c.Nodes), c.Depth(), 100*c.Agreement, 100*c.FallbackRate, c.Margin, c.CorpusSize)
	}
	if predict == "" {
		return nil
	}
	vec, err := parseVector(model, predict)
	if err != nil {
		return err
	}
	pred := model.Predict(vec)
	scores := model.Scores(vec)
	fmt.Fprintf(out, "prediction: variant label %d\n", pred)
	for i, c := range model.Classifier.Classes() {
		fmt.Fprintf(out, "  label %d score %.4f\n", c, scores[i])
	}
	return nil
}

// inspectJSON writes the machine-readable model summary: classifier kind,
// label set, feature dimension, SVM size when applicable, and the provenance
// metadata (version / created_at / trained_on) stamped by the tuner — the
// fields a deployment dashboard needs to tell a hot-swapped v2 retrain from
// the offline v1 artifact. Legacy artifacts without metadata report
// "meta": null.
func inspectJSON(data []byte, out io.Writer) error {
	model, err := ml.UnmarshalModel(data)
	if err != nil {
		return fmt.Errorf("parse model: %w", err)
	}
	type compiledSummary struct {
		Nodes        int     `json:"nodes"`
		Depth        int     `json:"depth"`
		Agreement    float64 `json:"agreement"`
		FallbackRate float64 `json:"fallback_rate"`
		Margin       float64 `json:"margin"`
		CorpusSize   int     `json:"corpus_size"`
	}
	summary := struct {
		Classifier     string           `json:"classifier"`
		Classes        []int            `json:"classes"`
		Features       int              `json:"features"`
		SupportVectors int              `json:"support_vectors,omitempty"`
		Version        int              `json:"version"`
		Meta           *ml.ModelMeta    `json:"meta"`
		Compiled       *compiledSummary `json:"compiled,omitempty"`
	}{
		Classifier: model.Classifier.Name(),
		Classes:    model.Classifier.Classes(),
		Version:    model.Version(),
		Meta:       model.Meta,
	}
	if model.Scaler != nil && model.Scaler.Fitted() {
		summary.Features = len(model.Scaler.Min)
	}
	if svm, ok := model.Classifier.(*ml.SVM); ok {
		summary.SupportVectors = svm.NumSupportVectors()
	}
	if c := model.Compiled; c != nil {
		summary.Compiled = &compiledSummary{
			Nodes:        len(c.Nodes),
			Depth:        c.Depth(),
			Agreement:    c.Agreement,
			FallbackRate: c.FallbackRate,
			Margin:       c.Margin,
			CorpusSize:   c.CorpusSize,
		}
	}
	enc, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", enc)
	return nil
}

// explain prints the full decision derivation for one feature vector: raw
// and scaled features, per-class scores, the pairwise SVM decision values
// (when the classifier is an SVM), and the ranked preference order — the
// deployment runtime's fallback chain. Output is deterministic for a given
// model and vector.
func explain(data []byte, vector string, out io.Writer) error {
	model, err := ml.UnmarshalModel(data)
	if err != nil {
		return fmt.Errorf("parse model: %w", err)
	}
	vec, err := parseVector(model, vector)
	if err != nil {
		return err
	}
	ex := model.Explain(vec)
	fmt.Fprintf(out, "explanation (model v%d):\n", ex.Version)
	fmt.Fprintf(out, "  raw features:    %v\n", ex.Raw)
	if ex.Scaled != nil {
		fmt.Fprintf(out, "  scaled features: %v\n", formatVec(ex.Scaled))
	} else {
		fmt.Fprintln(out, "  scaled features: (no scaler; raw used)")
	}
	for i, c := range ex.Classes {
		fmt.Fprintf(out, "  label %d score %.4f\n", c, ex.Scores[i])
	}
	for i, pair := range ex.PairClasses {
		winner := pair[0]
		if ex.PairDecisions[i] < 0 {
			winner = pair[1]
		}
		fmt.Fprintf(out, "  svm pair %d vs %d: decision %+.4f -> %d\n",
			pair[0], pair[1], ex.PairDecisions[i], winner)
	}
	fmt.Fprintf(out, "  ranked fallback order: %s\n", rankedString(ex.Ranked))
	fmt.Fprintf(out, "  predicted: variant label %d\n", ex.Predicted)
	if ex.Tier != "" {
		fmt.Fprintf(out, "  dispatch tier: %s\n", ex.Tier)
		if ex.Tier == "compiled" {
			fmt.Fprintf(out, "  compiled margin: %g (threshold %g)\n", ex.CompiledMargin, ex.CompiledThreshold)
		}
	}
	return nil
}

// formatVec renders a scaled feature vector with fixed precision so the
// output is stable across architectures.
func formatVec(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 6, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// rankedString renders the preference order as "2 -> 0 -> 1".
func rankedString(ranked []int) string {
	parts := make([]string, len(ranked))
	for i, r := range ranked {
		parts[i] = strconv.Itoa(r)
	}
	return strings.Join(parts, " -> ")
}

// parseVector parses a comma-separated feature vector and checks that the
// model can predict at its width (ml.Model.CheckShape): the scaler, the
// compiled program and the classifier body must all be that wide.
func parseVector(model *ml.Model, s string) ([]float64, error) {
	var vec []float64
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("bad feature value %q: %w", tok, err)
		}
		vec = append(vec, v)
	}
	if err := model.CheckShape(len(vec), 0); err != nil {
		return nil, fmt.Errorf("feature vector has %d values: %w", len(vec), err)
	}
	return vec, nil
}

// predictBatch classifies every vector in content (one comma-separated
// vector per line; blank lines and lines starting with '#' are skipped),
// fanning the predictions over the given worker count. Model prediction is
// read-only, so sharing one model across workers is safe; results are
// written in input order regardless of scheduling.
func predictBatch(data []byte, content string, parallelism int, out io.Writer) error {
	model, err := ml.UnmarshalModel(data)
	if err != nil {
		return err
	}
	var lines []string
	for _, line := range strings.Split(content, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return fmt.Errorf("predict-file contains no feature vectors")
	}
	vecs := make([][]float64, len(lines))
	for i, line := range lines {
		if vecs[i], err = parseVector(model, line); err != nil {
			return fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	preds := make([]int, len(vecs))
	par.For(len(vecs), par.Workers(parallelism), func(i int) {
		preds[i] = model.Predict(vecs[i])
	})
	fmt.Fprintf(out, "batch predictions (%d vectors, %d workers):\n", len(vecs), par.Workers(parallelism))
	for i, p := range preds {
		fmt.Fprintf(out, "  %s -> variant label %d\n", lines[i], p)
	}
	return nil
}

func describeKernel(k ml.Kernel) string {
	if rbf, ok := k.(ml.RBFKernel); ok {
		return fmt.Sprintf("rbf(gamma=%g)", rbf.Gamma)
	}
	return k.Name()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nitro-model:", err)
	os.Exit(1)
}
