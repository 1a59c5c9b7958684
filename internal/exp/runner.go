package exp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ErrInterrupted is the error Wait panics with when the run was aborted
// through Context.Interrupt. Owners that drive the Runner on behalf of
// an external caller (the serving daemon) recover it and report the run
// cancelled rather than failed.
var ErrInterrupted = errors.New("exp: run interrupted")

// Runner fans an experiment's (configuration × repetition) grid out over
// a worker pool while keeping the output bit-identical to a serial run.
//
// Experiments submit independent measurement cells (Submit / SubmitFunc /
// Repeat) interleaved with ordered hooks (Then), then call Wait. Cells
// execute concurrently on Context.Parallelism workers; each result lands
// in the slot indexed by its submission position — never in channel
// completion order — and Wait delivers callbacks strictly in submission
// order, streaming: a cell's callback fires as soon as it and every cell
// before it have completed, even while later cells are still running.
// Because every cell is an isolated single-threaded simulation whose
// randomness flows from its own seed, and because aggregation order is
// the submission order, rendered tables are bit-identical at every
// parallelism level.
//
// Early stop: a panicking cell (or, with Context.FailFast, a cell whose
// simulation overran its time limit) cancels all not-yet-started cells;
// Wait then re-panics with the first failure so a broken experiment
// surfaces instead of tabulating garbage.
type Runner struct {
	ctx   *Context
	items []runnerItem

	// next is the index of the next cell to hand to a worker.
	next atomic.Int64
	// cancelled stops workers from starting new cells once set.
	cancelled atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
	// err records the first failure (panic or FailFast overrun).
	err error
}

// runnerItem is one entry of the ordered submission stream: either a
// measurement cell (run != nil) or a deterministic hook (then != nil).
type runnerItem struct {
	label string
	run   func() RunResult
	fn    func(RunResult)
	then  func()

	// ring and reg are the cell-private observability buffers injected
	// by submit when the context traces/collects; the Wait goroutine
	// flushes them in submission order.
	ring *trace.Ring
	reg  *metrics.Registry

	res     RunResult
	done    bool
	skipped bool
}

// NewRunner builds a runner for one experiment.
func NewRunner(ctx *Context) *Runner {
	r := &Runner{ctx: ctx}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Submit queues one measurement with an explicit seed already set in o.
// fn (which may be nil) is invoked during Wait, in submission order, on
// the Wait goroutine — callbacks never race with one another.
func (r *Runner) Submit(o RunOpts, fn func(RunResult)) {
	r.submit(fmt.Sprintf("cell %d", len(r.items)), o, Run, fn)
}

// SubmitFunc queues an arbitrary measurement function for runs that need
// custom machine wiring; label identifies the cell in failure reports.
// run receives the RunOpts the context fills in — Perturb, Predict, and
// the cell's Tracer and Metrics registry — and wires them into the
// machine it builds, so a custom cell is traced, collected and
// perturbed like a Submit cell.
func (r *Runner) SubmitFunc(label string, run func(o RunOpts) RunResult, fn func(RunResult)) {
	r.submit(label, RunOpts{}, run, fn)
}

// submit queues a cell that calls run with o, completed from the
// context: its fault injection, predictive mode, and the cell-private
// trace ring and metrics registry when the context collects them.
func (r *Runner) submit(label string, o RunOpts, run func(RunOpts) RunResult, fn func(RunResult)) {
	it := runnerItem{label: label, fn: fn}
	if r.ctx.Perturb.Active() && !o.Perturb.Active() {
		// -perturb composes onto any experiment; cells that configure
		// their own perturbation (noise-* drivers) keep it.
		o.Perturb = r.ctx.Perturb
	}
	// -predict composes onto any experiment; cells that configure
	// prediction through their own SpeedCfg keep it.
	o.Predict = o.Predict || r.ctx.Predict
	if r.ctx.Trace != nil {
		it.ring = r.ctx.Trace.newRing()
		o.Tracer = it.ring
	}
	if r.ctx.Metrics != nil {
		it.reg = metrics.NewRegistry()
		o.Metrics = it.reg
	}
	it.run = func() RunResult { return run(o) }
	r.items = append(r.items, it)
}

// Repeat queues Context.Reps repetitions of the configuration with
// per-(config, rep) seeds derived by seedFor; fn receives each result,
// in repetition order, on the goroutine that calls Wait.
func (r *Runner) Repeat(config int, o RunOpts, fn func(rep int, res RunResult)) {
	for rep := 0; rep < r.ctx.Reps; rep++ {
		rep := rep
		o.Seed = seedFor(r.ctx.Seed, config, rep)
		r.submit(fmt.Sprintf("config %d rep %d", config, rep), o, Run,
			func(res RunResult) {
				if fn != nil {
					fn(rep, res)
				}
			})
	}
}

// Then queues a hook that runs on the Wait goroutine after the callbacks
// of everything submitted before it — the place for row assembly and
// progress logging that needs completed samples.
func (r *Runner) Then(fn func()) {
	r.items = append(r.items, runnerItem{then: fn})
}

// Cancel marks the run failed: workers skip all not-yet-started cells
// and Wait panics with err after in-flight cells drain.
func (r *Runner) Cancel(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancelled.Store(true)
}

// Wait executes all queued cells on the worker pool and delivers
// callbacks and hooks in submission order, then resets the runner for
// reuse. It panics if any cell failed.
func (r *Runner) Wait() {
	items := r.items
	cells := make([]int, 0, len(items))
	for i := range items {
		if items[i].run != nil {
			cells = append(cells, i)
		}
	}

	workers := r.ctx.parallelism()
	if workers > len(cells) {
		workers = len(cells)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(r.next.Add(1)) - 1
				if n >= len(cells) {
					return
				}
				r.runCell(&items[cells[n]])
			}
		}()
	}

	// Deliver in submission order, streaming as slots fill. Delivery
	// stops at the first skipped (cancelled) cell so the delivered
	// prefix is deterministic even when a failure races later cells.
	delivered := 0
	lastDecile := -1
	for i := range items {
		it := &items[i]
		if it.then != nil {
			it.then()
			continue
		}
		r.mu.Lock()
		for !it.done {
			r.cond.Wait()
		}
		r.mu.Unlock()
		if it.skipped {
			break
		}
		if it.fn != nil {
			it.fn(it.res)
		}
		// Flush the cell's observability buffers on the delivery
		// goroutine, in submission order: the trace bytes and the merged
		// metrics are therefore independent of the parallelism level.
		if it.ring != nil {
			r.ctx.Trace.flush(it.label, it.ring)
		}
		if it.reg != nil {
			r.ctx.Metrics.Add(it.reg.Snapshot())
		}
		delivered++
		if d := delivered * 10 / len(cells); d != lastDecile && len(cells) > 1 {
			lastDecile = d
			r.ctx.Logf("exp: %d/%d cells done", delivered, len(cells))
		}
	}
	wg.Wait()

	r.mu.Lock()
	err := r.err
	// Reset so a driver can reuse the runner for another phase. The
	// failure state must clear too (before the panic below, so a
	// recovering driver gets a clean runner): a runner left cancelled
	// would silently skip every cell of the next phase, and a stale err
	// would re-panic a failure that was already handled.
	r.err = nil
	r.mu.Unlock()
	r.cancelled.Store(false)
	r.items = nil
	r.next.Store(0)
	if err != nil {
		panic(err)
	}
}

// runCell executes one cell on a worker goroutine, converting panics
// into cancellation and honouring FailFast on truncated runs.
func (r *Runner) runCell(it *runnerItem) {
	finish := func() {
		r.mu.Lock()
		it.done = true
		r.mu.Unlock()
		r.cond.Broadcast()
	}
	if c := r.ctx.Interrupt; c != nil && !r.cancelled.Load() {
		// Non-blocking probe: an external abort cancels every cell that
		// has not started yet, exactly like an in-grid failure would.
		select {
		case <-c:
			r.Cancel(ErrInterrupted)
		default:
		}
	}
	if r.cancelled.Load() {
		it.skipped = true
		finish()
		return
	}
	defer func() {
		if p := recover(); p != nil {
			it.skipped = true
			r.Cancel(fmt.Errorf("exp: %s panicked: %v", it.label, p))
		}
		finish()
	}()
	it.res = it.run()
	if it.res.Truncated && r.ctx.FailFast {
		r.Cancel(fmt.Errorf("exp: %s overran its simulated time limit (elapsed %v)", it.label, it.res.Elapsed))
	}
}
