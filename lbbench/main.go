// Command lbbench is the repository benchmark. It drives the simulator
// and the lbosd serving layer through their public API on four
// workloads, checks every output it gets back, and prints each metric by
// name with its unit.
//
//	bash lbbench/run.sh --workload closed|open|fabric|serve|all \
//	    --seed N --seconds S --trace 0|1
//
// run.sh builds this module from the checkout's sources and runs it from
// the checkout root. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics. With --workload
// all the metric names are prefixed by the workload, and max_rss_mb is
// the process's peak so far.
//
// With --trace 0 one untraced phase measures the end-to-end metrics
// listed in BENCHMARK.json. With --trace 1 the benchmark runs an
// untraced phase and then a traced one, and reports the per-layer
// metrics: CPU-profile shares attributed by module, spans and counters
// around the seams the benchmark hands to the program (a timing
// sim.Scheduler decorator, a timing sim.Placer decorator, Machine.RunFor,
// Experiment.Run, each HTTP call, and serve's spec codec, key and cache
// functions), and runtime/metrics counters. The traced phase must
// produce the same output digests as the untraced one. It writes
// cpu.pprof, allocs.pprof and attribution.txt under --out.
//
// Output checks: every op's output is digested. For the default seed the
// digest chain is compared at power-of-two op counts with golden.json.
// On every seed the invariants hold: repeated passes and repeated keys
// return byte-identical bytes, Σ busy ≤ elapsed × cores, admitted ≥
// completed. To re-record golden.json after a deliberate output change,
// run each workload with --seed 1 and a long --seconds and copy the
// "chain" object of each report.json into golden.json.
//
// Wall time is read only through internal/clock, randomness only through
// internal/xrand seeded from --seed, and there are no sleeps or timers:
// the serve load is a closed loop.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed golden.json was recorded with.
const defaultSeed = 1

// metricDef names one reported metric. The lists below are the single
// source of BENCHMARK.json's end_to_end and per_layer entries.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd is measured with tracing off. Every workload reports every
// metric: an op is one round of experiment passes (closed), one fixed
// simulated chunk (open, fabric) or one HTTP request (serve).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"events_per_s", "events/s", "higher"},
	{"ops_per_s", "ops/s", "higher"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_tail", "ms", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer comes from the traced run. A metric a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"eventq.cpu_frac", "ratio", "lower"},
	{"eventq.ns_per_event", "ns", "lower"},
	{"sim.contention.cpu_frac", "ratio", "lower"},
	{"sim.core.cpu_frac", "ratio", "lower"},
	{"sim.events", "count", "higher"},
	{"sim.context_switches_per_event", "ratio", "lower"},
	{"sim.wakeups_per_event", "ratio", "lower"},
	{"sim.windows", "count", "higher"},
	{"sim.window_event_frac", "ratio", "higher"},
	{"cfs.cpu_frac", "ratio", "lower"},
	{"dwrr.cpu_frac", "ratio", "lower"},
	{"ule.cpu_frac", "ratio", "lower"},
	{"cfs.calls_per_event", "ratio", "lower"},
	{"cfs.ns_per_call", "ns", "lower"},
	{"linuxlb.cpu_frac", "ratio", "lower"},
	{"linuxlb.migrations", "count", "lower"},
	{"linuxlb.place_us", "us", "lower"},
	{"speedbal.cpu_frac", "ratio", "lower"},
	{"predict.cpu_frac", "ratio", "lower"},
	{"speedbal.migrations", "count", "lower"},
	{"spmd.cpu_frac", "ratio", "lower"},
	{"task.cpu_frac", "ratio", "lower"},
	{"openload.cpu_frac", "ratio", "lower"},
	{"openload.admitted", "count", "higher"},
	{"openload.completed", "count", "higher"},
	{"openload.backlog", "count", "lower"},
	{"perturb.cpu_frac", "ratio", "lower"},
	{"exp.run_ms", "ms", "lower"},
	{"exp.render_us", "us", "lower"},
	{"serve.decode_us", "us", "lower"},
	{"serve.key_us", "us", "lower"},
	{"serve.lookup_us", "us", "lower"},
	{"serve.exec_ms_mean", "ms", "lower"},
	{"serve.queue_wait_ms_mean", "ms", "lower"},
	{"serve.render_us", "us", "lower"},
	{"serve.hit_ms_p50", "ms", "lower"},
	{"serve.miss_ms_p50", "ms", "lower"},
	{"serve.hit_frac", "ratio", "higher"},
	{"serve.join_frac", "ratio", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.cpu_frac", "ratio", "lower"},
	{"net_http.cpu_frac", "ratio", "lower"},
	{"encoding_json.cpu_frac", "ratio", "lower"},
	{"runtime.allocs_per_event", "allocs/event", "lower"},
	{"runtime.alloc_bytes_per_event", "B/event", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.cpu_frac", "ratio", "lower"},
	{"lbbench.cpu_frac", "ratio", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(cfg runConfig, p *probe) (*phase, error)
}

var workloads = []workload{
	{"closed", "serial fig2, fig3t and noise-omps passes: fixed thread populations under every balancer, no parallel windows", runClosed},
	{"open", "openload arrivals at rho 0.8 on Tigerton under CFS and linuxlb: task churn stresses the allocator and event queue", runOpen},
	{"fabric", "fab1k: 16x64 cores on 16 parallel socket shards, where the contention model dominates", runFabric},
	{"serve", "in-process lbosd under a closed loop of hits, cold misses, csv/text renders and malformed specs", runServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is what a workload's run function needs to know.
type runConfig struct {
	seed uint64
	// dur is the length of the timed region.
	dur time.Duration
	// setupReps is how many times the set-up is timed; the last set-up
	// is the one measured.
	setupReps int
	// small shrinks machines and specs for the smoke tests. Golden
	// digests apply only to full-size runs.
	small bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lbbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "closed, open, fabric, serve or all")
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 15, "length of each timed region in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "lbbench"), "directory for reports and profiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "lbbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "lbbench: --seconds must be positive\n")
		return 2
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), setupReps: 5}

	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(stderr, "lbbench: unknown workload %q\n", *name)
		return 2
	}

	combined := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		rep, err := measure(w, cfg, *trace == 1, filepath.Join(*out, w.name))
		if err != nil {
			fmt.Fprintf(stderr, "lbbench: %s: %v\n", w.name, err)
			return 1
		}
		rep.print(stdout)
		for _, p := range rep.Problems {
			fmt.Fprintf(stderr, "lbbench: %s: check failed: %s\n", w.name, p)
		}
		if len(selected) == 1 {
			combined = rep.Result
			break
		}
		combined.Correct = combined.Correct && rep.Result.Correct
		combined.Attempted += rep.Result.Attempted
		combined.Failed += rep.Result.Failed
		for k, v := range rep.Result.Metrics {
			combined.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintf(stderr, "lbbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// report is everything one workload's measurement produced. It is
// written to report.json and summarised on standard output.
type report struct {
	Workload string            `json:"workload"`
	Trace    bool              `json:"trace"`
	Host     hostFacts         `json:"host"`
	Result   result            `json:"result"`
	Notes    map[string]string `json:"notes"`
	Problems []string          `json:"problems,omitempty"`
	// Chain holds the output digest chain at power-of-two op counts.
	Chain map[string]string `json:"chain"`
	// Attribution is the CPU-profile share per module (traced runs).
	Attribution []moduleShare `json:"attribution,omitempty"`
}

// measure runs one workload in the requested mode and assembles its
// report.
func measure(w workload, cfg runConfig, traced bool, outDir string) (*report, error) {
	rep := &report{Workload: w.name, Trace: traced, Host: collectHostFacts(cfg.seed), Notes: map[string]string{}}
	plainProbe := &probe{}
	plain, err := w.run(cfg, plainProbe)
	if err != nil {
		return nil, err
	}
	rep.Host.GOMAXPROCS = plainProbe.procs
	checkGolden(w.name, cfg, plain)
	rep.Chain = plain.chainCheckpoints()
	defs := endToEnd
	var metrics map[string]float64
	attempted, failed := plain.attempted(), plain.failed()
	problems := plain.problems

	if !traced {
		metrics = endToEndMetrics(plain, rep.Notes)
	} else {
		defs = perLayer
		p := &probe{traced: true}
		tr, err := w.run(cfg, p)
		if err != nil {
			return nil, err
		}
		checkGolden(w.name, cfg, tr)
		tr.compareDigests(plain)
		attempted += tr.attempted()
		failed += tr.failed()
		problems = append(problems, tr.problems...)
		shares, err := attribute(p.cpu.Bytes())
		if err != nil {
			return nil, fmt.Errorf("reading CPU profile: %w", err)
		}
		rep.Attribution = shares
		metrics = perLayerMetrics(plain, plainProbe, tr, shares)
		if err := writeArtifacts(outDir, p, shares); err != nil {
			return nil, err
		}
		rep.Notes["artifacts"] = outDir
	}

	rep.Result = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		rep.Result.Metrics[d.Name] = metric{Value: metrics[d.Name], Unit: d.Unit}
	}
	rep.Problems = capProblems(problems)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(outDir, "report.json"), append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	return rep, nil
}

// capProblems keeps the report readable when a check fails on every op.
func capProblems(p []string) []string {
	const max = 20
	if len(p) <= max {
		return p
	}
	return append(p[:max:max], fmt.Sprintf("... and %d more", len(p)-max))
}

// endToEndMetrics derives the untraced metrics of one phase.
func endToEndMetrics(ph *phase, notes map[string]string) map[string]float64 {
	secs := ph.elapsed.Seconds()
	q, tailMs := tail(ph.opMs)
	notes["setup"] = fmt.Sprintf("median of %d set-ups", len(ph.setupS))
	notes["op"] = ph.opName
	notes["op_ms_tail"] = fmt.Sprintf("%s of %d ops", q, len(ph.opMs))
	return map[string]float64{
		"setup_s":      median(ph.setupS),
		"events_per_s": ph.eventsPerSec(),
		"ops_per_s":    float64(ph.attempted()-ph.failed()) / secs,
		"op_ms_p50":    median(ph.opMs),
		"op_ms_tail":   tailMs,
		"max_rss_mb":   maxRSSMiB(),
	}
}

// print writes the human-readable summary: host facts, then every
// metric with its unit, then the failure share.
func (r *report) print(w io.Writer) {
	h := r.Host
	fmt.Fprintf(w, "lbbench: workload=%s trace=%v seed=%d num_cpu=%d gomaxprocs=%d %s/%s %s source_sha256=%s\n",
		r.Workload, r.Trace, h.Seed, h.NumCPU, h.GOMAXPROCS, h.GOOS, h.GOARCH, h.GoVersion, h.SourceSHA256)
	names := make([]string, 0, len(r.Result.Metrics))
	for k := range r.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Result.Metrics[k]
		fmt.Fprintf(w, "lbbench: %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	frac := 0.0
	if r.Result.Attempted > 0 {
		frac = float64(r.Result.Failed) / float64(r.Result.Attempted)
	}
	fmt.Fprintf(w, "lbbench: %-32s %14.6g ratio (%d of %d ops)\n", "failed_frac", frac, r.Result.Failed, r.Result.Attempted)
	keys := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "lbbench: note %s: %s\n", k, r.Notes[k])
	}
}
