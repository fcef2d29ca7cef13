// Command nitro-experiments regenerates the tables and figures of the Nitro
// paper's evaluation on the synthetic corpora (see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	nitro-experiments [-run setup|fig5|fig6|fig7|fig8|headline|extension|noise|portability|all]
//	                  [-scale 1.0] [-seed 42] [-iters 50] [-nogrid]
//
// An unknown -run value exits with status 2 before any corpus is built.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"nitro/internal/autotuner"
	"nitro/internal/datasets"
	"nitro/internal/experiments"
	"nitro/internal/gpusim"
)

// runNames lists the valid -run values. "all" runs every experiment.
var runNames = []string{"setup", "fig5", "fig6", "fig7", "fig8", "headline",
	"extension", "noise", "portability", "all"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, checks -run and runs the selected experiments, returning
// the process exit status: 0 on success, 1 when an experiment fails, 2 for
// bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nitro-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlag := fs.String("run", "all", "which experiment to run: "+strings.Join(runNames, ", "))
	scale := fs.Float64("scale", 1.0, "instance-size scale in (0,1]")
	seed := fs.Int64("seed", 42, "corpus generation seed")
	iters := fs.Int("iters", 50, "incremental-tuning iteration budget (fig7)")
	nogrid := fs.Bool("nogrid", false, "disable the cross-validated SVM grid search")
	trainN := fs.Int("train", 0, "override training corpus size (0 = paper)")
	testN := fs.Int("test", 0, "override test corpus size (0 = paper)")
	csvDir := fs.String("csvdir", "", "also write per-figure CSV files into this directory")
	parallelism := fs.Int("parallelism", 0, "worker count for corpus labelling, grid search and per-suite figures (0 = all cores, 1 = serial); results are identical at every setting")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	name := strings.ToLower(*runFlag)
	if !slices.Contains(runNames, name) {
		fmt.Fprintf(stderr, "nitro-experiments: unknown -run %q; valid values: %s\n", *runFlag, strings.Join(runNames, ", "))
		return 2
	}

	opts := experiments.Options{
		Cfg: datasets.Config{Seed: *seed, Scale: *scale, TrainCount: *trainN, TestCount: *testN,
			Parallelism: *parallelism},
		Train: autotuner.TrainOptions{
			GridSearch:  !*nogrid,
			Seed:        *seed,
			Parallelism: *parallelism,
		},
	}
	err := runExperiments(stdout, name, opts, *iters, *csvDir)
	if err != nil {
		fmt.Fprintln(stderr, "nitro-experiments:", err)
		return 1
	}
	return 0
}

// runExperiments builds the five corpora once and runs the experiment(s)
// name selects, printing each table to out.
func runExperiments(out io.Writer, name string, opts experiments.Options, iters int, csvDir string) error {
	dev := gpusim.Fermi()
	fmt.Fprintf(out, "device: %s\n", dev)

	start := time.Now()
	suites, err := experiments.BuildSuites(opts, dev)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built 5 corpora in %v\n\n", time.Since(start).Round(time.Millisecond))

	want := func(fig string) bool { return name == "all" || name == fig }
	csvOut := func(fig string, write func(w io.Writer) error) error {
		if csvDir == "" {
			return nil
		}
		path := filepath.Join(csvDir, experiments.CSVName(fig))
		if err := writeFile(path, write); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", path)
		return nil
	}

	if want("setup") {
		rows := experiments.Setup(suites)
		fmt.Fprintln(out, experiments.FormatSetup(rows))
		if err := csvOut("setup", func(w io.Writer) error { return experiments.WriteSetupCSV(w, rows) }); err != nil {
			return err
		}
	}
	if want("fig5") {
		rows, err := experiments.Fig5(suites, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFig5(rows))
		if err := csvOut("fig5", func(w io.Writer) error { return experiments.WriteFig5CSV(w, rows) }); err != nil {
			return err
		}
	}
	if want("fig6") || want("headline") {
		h, err := experiments.Headline(suites, opts, dev)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatHeadline(h))
		if err := csvOut("fig6", func(w io.Writer) error { return experiments.WriteFig6CSV(w, h.Rows) }); err != nil {
			return err
		}
	}
	if want("fig7") {
		curves, err := experiments.Fig7(suites, opts, iters)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFig7(curves))
		if err := csvOut("fig7", func(w io.Writer) error { return experiments.WriteFig7CSV(w, curves) }); err != nil {
			return err
		}
	}
	if want("fig8") {
		rows, err := experiments.Fig8(suites, opts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatFig8(rows))
		if err := csvOut("fig8", func(w io.Writer) error { return experiments.WriteFig8CSV(w, rows) }); err != nil {
			return err
		}
	}
	if want("extension") {
		rows, err := experiments.Extension(opts, dev)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatExtension(rows))
	}
	if want("noise") {
		rows, err := experiments.NoiseRobustness(suites, opts, nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatNoise(rows))
	}
	if want("portability") {
		res, err := experiments.Portability(opts, dev, gpusim.Kepler())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, experiments.FormatPortability(res))
	}
	fmt.Fprintf(out, "total wall time %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// writeFile creates path and fills it with write, reporting the first error
// of writing or closing.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	return errors.Join(write(f), f.Close())
}
