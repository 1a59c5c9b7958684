// Command speedbalance mirrors the paper's stand-alone speedbalancer
// program (§5.2) against the simulated machine: it "forks" an SPMD
// application, pins its threads round-robin over the requested cores,
// and balances their speeds, printing a per-thread report.
//
// Usage:
//
//	speedbalance [flags]
//
//	-machine tigerton|barcelona|nehalem|smpN   (default tigerton)
//	-threads N        application threads (default 16)
//	-cores N          restrict to the first N cores (default all)
//	-work MS          per-thread work between barriers, ms (default 100)
//	-iters N          barrier iterations (default 50)
//	-model upc|upc-sleep|mpi|openmp|openmp-inf  (default upc)
//	-interval MS      balance interval (default 100)
//	-threshold F      T_s speed threshold (default 0.9)
//	-hog CORE         pin a cpu-hog competitor to CORE (-1: none)
//	-makej N          run a make -j N competitor (0: none)
//	-baseline         also run LOAD and PINNED for comparison
//	-parallel N       workers for the independent runs (0: GOMAXPROCS)
//	-timeline         print an ASCII core-occupancy chart
//	-seed N           RNG seed
//
// The SPEED run and the -baseline LOAD and PINNED runs are cells of one
// exp.Runner, the experiment harness behind `lbos run`: each owns its
// machine and seed, so the report is byte-identical at any -parallel.
// Flag values the chosen machine cannot honour, a non-positive -interval
// or -work, and an -iters below 1 are rejected with exit status 2
// before any run starts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/competing"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes the report to stdout
// and progress and errors to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("speedbalance", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machine := fs.String("machine", "tigerton", "machine model")
	threads := fs.Int("threads", 16, "application threads")
	cores := fs.Int("cores", 0, "restrict to first N cores (0: all)")
	workMS := fs.Float64("work", 100, "per-thread work between barriers (ms)")
	iters := fs.Int("iters", 50, "barrier iterations")
	model := fs.String("model", "upc", "programming model")
	intervalMS := fs.Int("interval", 100, "balance interval (ms)")
	threshold := fs.Float64("threshold", 0.9, "T_s speed threshold")
	hog := fs.Int("hog", -1, "pin a cpu-hog to this core")
	makej := fs.Int("makej", 0, "make -j width competitor")
	baseline := fs.Bool("baseline", false, "also run LOAD and PINNED")
	parallel := fs.Int("parallel", 0, "workers for independent runs (0: GOMAXPROCS)")
	showTimeline := fs.Bool("timeline", false, "print an ASCII core-occupancy chart")
	seed := fs.Uint64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "speedbalance: "+format+"\n", a...)
		return 2
	}

	tp, err := machineByName(*machine)
	if err != nil {
		return fail("%v", err)
	}
	mdl, err := modelByName(*model)
	if err != nil {
		return fail("%v", err)
	}
	n := tp().NumCores()
	switch {
	case *threads < 1:
		return fail("-threads %d: need at least one thread", *threads)
	case *cores > n:
		return fail("-cores %d: %s has %d cores", *cores, *machine, n)
	case *hog >= n:
		return fail("-hog %d: %s has cores 0-%d", *hog, *machine, n-1)
	case *intervalMS <= 0:
		return fail("-interval %d: need a positive balance interval", *intervalMS)
	case *iters < 1:
		return fail("-iters %d: need at least one iteration", *iters)
	case *workMS <= 0:
		return fail("-work %g: need positive work per iteration", *workMS)
	}
	aff := cpuset.All(n)
	if *cores > 0 {
		aff = cpuset.All(*cores)
	}

	// The paper's speedbalancer (§5.1–5.2) with the two flags applied:
	// NUMA blocking, wake-up jitter and sample noise stay on.
	scfg := speedbal.DefaultConfig()
	scfg.Interval = time.Duration(*intervalMS) * time.Millisecond
	scfg.Threshold = *threshold
	o := exp.RunOpts{
		Topo: tp,
		Spec: spmd.Spec{
			Name:             "app",
			Threads:          *threads,
			Iterations:       *iters,
			WorkPerIteration: *workMS * 1e6,
			Model:            mdl,
			Affinity:         aff,
		},
		Seed:     *seed,
		SpeedCfg: &scfg,
		Setup: func(m *sim.Machine) {
			if *hog >= 0 {
				competing.CPUHog(m, *hog)
			}
			if *makej > 0 {
				m.AddActor(&competing.MakeJ{Width: *makej})
			}
		},
	}

	// The SPEED run and the baselines are independent cells; the
	// runner delivers their results in submission order.
	r := exp.NewRunner(&exp.Context{Parallelism: *parallel, Log: stderr})
	so := o
	so.Strategy = exp.StratSpeed
	var stints stintLog
	var started *sim.TaskLog
	if *showTimeline {
		so.Tracer = &stints
		so.Setup = func(m *sim.Machine) {
			started = sim.LogTasks(m)
			o.Setup(m)
		}
	}
	var res exp.RunResult
	r.Submit(so, func(rr exp.RunResult) { res = rr })
	var baselines []exp.Strategy
	if *baseline {
		baselines = []exp.Strategy{exp.StratLoad, exp.StratPinned}
	}
	bases := make([]exp.RunResult, len(baselines))
	for i, s := range baselines {
		bo := o
		bo.Strategy = s
		r.Submit(bo, func(rr exp.RunResult) { bases[i] = rr })
	}
	r.Wait()

	fmt.Fprintf(stdout, "speedbalance: %d threads on %s (%d cores allowed), %s barriers\n",
		*threads, *machine, aff.Count(), mdl.Name)
	fmt.Fprintf(stdout, "  elapsed %v   speedup %.2f   migrations %d\n\n",
		res.Elapsed.Round(time.Millisecond), res.Speedup, res.SpeedbalMigrations)
	fmt.Fprintf(stdout, "  %-8s %12s %12s %6s %6s\n", "thread", "exec", "speed", "migs", "core")
	for _, t := range res.App.Tasks {
		speed := float64(t.ExecTime) / float64(res.Elapsed)
		fmt.Fprintf(stdout, "  %-8s %12v %12.3f %6d %6d\n",
			t.Name, t.ExecTime.Round(time.Millisecond), speed, t.Migrations, t.CoreID)
	}

	if *showTimeline {
		fmt.Fprintln(stdout)
		writeChart(stdout, res.Machine, started, stints)
	}

	if *baseline {
		fmt.Fprintln(stdout)
		for i, s := range baselines {
			fmt.Fprintf(stdout, "  %-7s elapsed %v   speedup %.2f\n",
				string(s)+":", bases[i].Elapsed.Round(time.Millisecond), bases[i].Speedup)
		}
	}
	return 0
}

func machineByName(name string) (func() *topo.Topology, error) {
	switch name {
	case "tigerton":
		return topo.Tigerton, nil
	case "barcelona":
		return topo.Barcelona, nil
	case "nehalem":
		return topo.Nehalem, nil
	}
	if n, ok := strings.CutPrefix(name, "smp"); ok {
		if k, err := strconv.Atoi(n); err == nil && k > 0 && k <= 64 {
			return func() *topo.Topology { return topo.SMP(k) }, nil
		}
	}
	return nil, fmt.Errorf("unknown machine %q (tigerton|barcelona|nehalem|smpN)", name)
}

func modelByName(name string) (spmd.Model, error) {
	switch name {
	case "upc":
		return spmd.UPC(), nil
	case "upc-sleep":
		return spmd.UPCSleep(), nil
	case "mpi":
		return spmd.MPI(), nil
	case "openmp":
		return spmd.OpenMPDefault(), nil
	case "openmp-inf":
		return spmd.OpenMPInfinite(), nil
	}
	return spmd.Model{}, fmt.Errorf("unknown model %q", name)
}
