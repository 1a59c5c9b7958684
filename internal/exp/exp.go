// Package exp is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§6) plus the ablations listed in
// DESIGN.md §4, rendering results as text tables (and CSV).
//
// Each experiment is registered under the ID used throughout DESIGN.md
// and EXPERIMENTS.md (fig1, fig2, fig3t, fig3b, fig4, fig4omp, fig5,
// fig6, table1, table2, table3, ompS, abl-*). `lbos run <id>` executes
// one; `go test -bench` runs scaled-down versions of all of them.
package exp

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"repro/internal/metrics"
	"repro/internal/perturb"
)

// Context carries run-wide settings into experiments.
type Context struct {
	// Reps is the number of repetitions per configuration (the paper
	// repeats each experiment ten times or more).
	Reps int
	// Scale divides workload sizes: 1 = full paper scale, larger values
	// shrink iteration counts/work for quick runs (benches use 8).
	Scale int
	// Seed is the base RNG seed; repetition r of configuration k uses a
	// deterministic function of (Seed, k, r).
	Seed uint64
	// Parallelism is the number of worker goroutines the experiment
	// Runner uses for the (configuration × repetition) grid (0 or
	// negative = GOMAXPROCS). Each cell is an isolated single-threaded
	// simulation seeded by seedFor, and results are aggregated in
	// submission order, so rendered tables are bit-identical at every
	// parallelism level.
	Parallelism int
	// FailFast cancels an experiment's remaining cells as soon as one
	// run overruns its simulated time limit, instead of tabulating the
	// truncated value; the Runner then panics with a description of the
	// overrun cell.
	FailFast bool
	// Log receives progress lines (nil discards).
	Log io.Writer
	// Trace, when set, collects every Submit/Repeat cell's scheduling
	// events into one Chrome trace stream. Cells record into private
	// rings and are flushed in submission order, so the trace bytes are
	// identical at every Parallelism (SubmitFunc custom cells are not
	// traced — they build their own machines).
	Trace *TraceSink
	// Metrics, when set, aggregates every Submit/Repeat cell's metrics
	// registry, merged in submission order.
	Metrics *metrics.Aggregate
	// Perturb, when active, composes deterministic fault injection
	// (kernel noise, hotplug, frequency drift, interrupt storms) onto
	// every Submit/Repeat cell that does not set its own perturbation.
	// The injector draws from each cell's seeded RNG, so perturbed
	// tables remain bit-identical at every Parallelism.
	Perturb perturb.Config
	// Predict turns on the speed balancer's anticipatory mode
	// (speedbal.Config.Predict with predict.DefaultConfig) in every
	// Submit/Repeat cell that does not configure prediction itself —
	// the -predict flag of `lbos run`. Cells not using the speed
	// balancer are unaffected.
	Predict bool
	// Interrupt, when non-nil, lets an external owner (the lbosd
	// serving daemon, a request context) abort the grid: once the
	// channel is closed, workers skip every not-yet-started cell and
	// Wait panics with ErrInterrupted. Cells already executing run to
	// completion — interruption never truncates a simulation mid-run,
	// so the callbacks delivered before the abort are still bit-exact.
	Interrupt <-chan struct{}

	// logMu serialises Logf writes: cells complete on worker
	// goroutines, and experiments log from result callbacks while the
	// Runner logs its own progress.
	logMu sync.Mutex
}

// CheckDials validates the run-wide dials that `lbos run` and the lbosd
// spec share: reps ≥ 1, scale ≥ 1 and parallel ≥ 0 (0 = GOMAXPROCS),
// checked in that order. The error names the first bad dial as both
// front ends spell it.
func CheckDials(reps, scale, parallel int) error {
	if reps < 1 {
		return fmt.Errorf("reps %d out of range (want ≥ 1)", reps)
	}
	if scale < 1 {
		return fmt.Errorf("scale %d out of range (want ≥ 1)", scale)
	}
	if parallel < 0 {
		return fmt.Errorf("parallel %d out of range (want ≥ 0)", parallel)
	}
	return nil
}

// DefaultContext returns paper-scale settings: 10 repetitions, scale 1.
func DefaultContext() *Context {
	return &Context{Reps: 10, Scale: 1, Seed: 20100109} // PPoPP'10 date
}

// QuickContext returns a scaled-down context for tests and benches.
func QuickContext() *Context {
	return &Context{Reps: 3, Scale: 8, Seed: 20100109}
}

// Logf writes a progress line. It is safe for concurrent use: lines
// from parallel cells are serialised, never interleaved.
func (c *Context) Logf(format string, args ...any) {
	if c.Log == nil {
		return
	}
	c.logMu.Lock()
	defer c.logMu.Unlock()
	fmt.Fprintf(c.Log, format+"\n", args...)
}

// parallelism resolves the effective worker count.
func (c *Context) parallelism() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the short handle (e.g. "fig3t").
	ID string
	// Title is the human description.
	Title string
	// PaperRef names the artifact in the paper ("Figure 3, left").
	PaperRef string
	// Expect summarises the shape the paper reports, for side-by-side
	// reading in EXPERIMENTS.md.
	Expect string
	// Run executes the experiment and returns its tables.
	Run func(ctx *Context) []*Table
}

var registry = map[string]*Experiment{}

// Register adds an experiment; duplicate IDs panic.
func Register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("exp: duplicate experiment %q", e.ID))
	}
	registry[e.ID] = e
}

// ByID returns the experiment or an error listing valid IDs.
func ByID(id string) (*Experiment, error) {
	if e, ok := registry[id]; ok {
		return e, nil
	}
	ids := make([]string, 0, len(registry))
	for k := range registry {
		ids = append(ids, k)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}

// All returns every experiment sorted by ID.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// seedFor derives a per-(configuration, repetition) seed.
func seedFor(base uint64, config, rep int) uint64 {
	x := base ^ uint64(config)*0x9e3779b97f4a7c15 ^ uint64(rep)*0xbf58476d1ce4e5b9
	// One splitmix-style mix so nearby inputs decorrelate.
	x ^= x >> 30
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
