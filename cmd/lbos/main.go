// Command lbos runs the experiments that regenerate the tables and
// figures of "Load Balancing on Speed" (PPoPP 2010) on the simulated
// machines.
//
// Usage:
//
//	lbos list                              # show available experiments
//	lbos run [flags] <id>... | all         # run experiments
//
// Flags for run:
//
//	-reps N      repetitions per configuration (default 10, the paper's count)
//	-scale K     divide workload sizes by K for quicker runs (default 1)
//	-seed S      base RNG seed
//	-parallel P  worker goroutines for the (config × rep) grid
//	             (default 0 = GOMAXPROCS); tables are bit-identical at any P
//	-failfast    stop an experiment at the first run that overruns its
//	             simulated time limit
//	-csv DIR     also write each table as CSV under DIR
//	-trace FILE  write a Chrome trace-event JSON of every run's scheduling
//	             events (load FILE in ui.perfetto.dev); byte-identical at
//	             every -parallel level
//	-metrics     collect and print scheduler metrics (migration counts,
//	             speed-sample and barrier-wait histograms, busy fractions)
//	-perturb L   inject deterministic faults into every run that sets
//	             none itself: comma-separated families from noise,
//	             kthread (schedulable noise), hotplug, freq, storm, or
//	             all (see internal/perturb); schedules derive from -seed,
//	             so perturbed tables stay bit-identical at any -parallel
//	-predict     arm the speed balancer's predictive mode (anticipatory
//	             pulls and wake-time placement from streaming per-core
//	             speed distributions) in every SPEED run; inert for
//	             experiments that configure prediction themselves
//	-q           suppress progress logging
//
// run rejects -reps or -scale below 1, -parallel below 0, an unknown
// -perturb family and an unknown experiment ID with one "lbos: " line
// and exit status 2 before any experiment starts, and exits 1 when a
// -csv or -trace file cannot be written.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/perturb"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		list()
	case "run":
		os.Exit(run(os.Args[2:], os.Stdout, os.Stderr))
	default:
		usage(os.Stderr)
		os.Exit(2)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: lbos list | lbos run [-reps N] [-scale K] [-seed S] [-parallel P] [-failfast] [-csv DIR] [-trace FILE] [-metrics] [-perturb LIST] [-predict] [-q] <id>...|all")
}

func list() {
	for _, e := range exp.All() {
		fmt.Printf("%-10s %-12s %s\n", e.ID, e.PaperRef, e.Title)
	}
}

// run executes `lbos run`: tables go to stdout, progress and errors to
// stderr. It returns the process exit status.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	reps := fs.Int("reps", 10, "repetitions per configuration")
	scale := fs.Int("scale", 1, "divide workload sizes by this factor")
	seed := fs.Uint64("seed", 20100109, "base RNG seed")
	parallel := fs.Int("parallel", 0, "worker goroutines for the experiment grid (0 = GOMAXPROCS)")
	failfast := fs.Bool("failfast", false, "stop at the first run overrunning its simulated time limit")
	csvDir := fs.String("csv", "", "write tables as CSV under this directory")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON of all runs to this file")
	withMetrics := fs.Bool("metrics", false, "collect and print scheduler metrics per experiment")
	perturbSpec := fs.String("perturb", "", "inject faults: comma-separated from noise,kthread,hotplug,freq,storm,all")
	predictOn := fs.Bool("predict", false, "arm the speed balancer's predictive mode in every SPEED run")
	quiet := fs.Bool("q", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	// The dial names are the flag names, so the message names the flag.
	if err := exp.CheckDials(*reps, *scale, *parallel); err != nil {
		fmt.Fprintf(stderr, "lbos: -%v\n", err)
		return 2
	}

	pcfg, err := perturb.Parse(*perturbSpec)
	if err != nil {
		fmt.Fprintf(stderr, "lbos: %v\n", err)
		return 2
	}

	ids := fs.Args()
	if len(ids) == 0 {
		usage(stderr)
		return 2
	}
	var exps []*exp.Experiment
	if len(ids) == 1 && ids[0] == "all" {
		exps = exp.All()
	} else {
		for _, id := range ids {
			e, err := exp.ByID(id)
			if err != nil {
				fmt.Fprintf(stderr, "lbos: %v\n", err)
				return 2
			}
			exps = append(exps, e)
		}
	}

	ctx := &exp.Context{
		Reps: *reps, Scale: *scale, Seed: *seed,
		Parallelism: *parallel, FailFast: *failfast,
		Perturb: pcfg, Predict: *predictOn,
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(stderr, "lbos: %v\n", err)
			return 1
		}
		ctx.Trace = exp.NewTraceSink(f)
		defer func() {
			err := ctx.Trace.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			switch {
			case err != nil:
				fmt.Fprintf(stderr, "lbos: %v\n", err)
				code = 1
			case !*quiet:
				fmt.Fprintf(stderr, "lbos: trace of %d runs written to %s (load in ui.perfetto.dev)\n",
					ctx.Trace.Cells, *traceFile)
			}
		}()
	}
	if !*quiet {
		ctx.Log = stderr
		workers := *parallel
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Fprintf(stderr, "lbos: %d reps, scale 1/%d, %d parallel workers\n",
			*reps, *scale, workers)
	}
	for _, e := range exps {
		sw := clock.Start()
		fmt.Fprintf(stdout, "### %s — %s (%s)\n", e.ID, e.Title, e.PaperRef)
		fmt.Fprintf(stdout, "paper: %s\n\n", e.Expect)
		if *withMetrics {
			// Fresh aggregate per experiment so metrics tables are scoped
			// to one experiment's cells.
			ctx.Metrics = metrics.NewAggregate()
		}
		tables := e.Run(ctx)
		if *withMetrics {
			tables = append(tables, exp.MetricsTables(ctx.Metrics.Snapshot())...)
		}
		for ti, t := range tables {
			t.Render(stdout)
			fmt.Fprintln(stdout)
			if *csvDir != "" {
				if err := writeCSV(*csvDir, e.ID, ti, t); err != nil {
					fmt.Fprintf(stderr, "lbos: %v\n", err)
					return 1
				}
			}
		}
		fmt.Fprintf(stdout, "(%s completed in %v wall time)\n\n", e.ID, sw.Elapsed().Round(time.Millisecond))
	}
	return 0
}

// writeCSV writes table t of experiment id as one CSV file under dir.
func writeCSV(dir, id string, idx int, t *exp.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	t.CSV(&b)
	name := fmt.Sprintf("%s_%d_%s.csv", id, idx, slug(t.Title))
	return os.WriteFile(filepath.Join(dir, name), b.Bytes(), 0o644)
}

func slug(s string) string {
	s = strings.ToLower(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
	}
	out := b.String()
	if len(out) > 40 {
		out = out[:40]
	}
	return out
}
