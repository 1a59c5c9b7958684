package exp

import (
	"fmt"
	"time"

	"repro/internal/cfs"
	"repro/internal/dwrr"
	"repro/internal/linuxlb"
	"repro/internal/metrics"
	"repro/internal/perturb"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ule"
)

// Strategy names a balancing configuration, matching the labels in the
// paper's figures.
type Strategy string

const (
	// StratPinned statically pins threads round-robin (the paper's
	// PINNED; with threads == cores it is One-per-core).
	StratPinned Strategy = "PINNED"
	// StratLoad is default Linux: CFS per core plus the queue-length
	// load balancer, OS fork placement.
	StratLoad Strategy = "LOAD"
	// StratSpeed is the paper's contribution: Linux plus the user-level
	// speed balancer managing the application.
	StratSpeed Strategy = "SPEED"
	// StratDWRR replaces balancing with Distributed Weighted
	// Round-Robin scheduling.
	StratDWRR Strategy = "DWRR"
	// StratULE is the FreeBSD 7.2 ULE push/pull balancer.
	StratULE Strategy = "FreeBSD"
)

// RunOpts describes one measurement.
type RunOpts struct {
	// Topo builds the machine (fresh per run).
	Topo func() *topo.Topology
	// Strategy selects the balancing configuration.
	Strategy Strategy
	// Spec is the application (threads, work, barrier model, affinity).
	Spec spmd.Spec
	// Seed drives all randomness in the run.
	Seed uint64
	// SpeedCfg overrides the speed balancer configuration (ablations).
	SpeedCfg *speedbal.Config
	// Setup installs competing workload on the machine before the app
	// starts (cpu-hog, make -j). May be nil.
	Setup func(m *sim.Machine)
	// Perturb, when active, adds a deterministic fault injector (kernel
	// noise, hotplug, frequency drift, interrupt storms) to the run. The
	// Runner copies Context.Perturb here for cells that leave it inert.
	Perturb perturb.Config
	// Predict enables the speed balancer's anticipatory mode with
	// predict.DefaultConfig when the cell's SpeedCfg does not already
	// configure prediction. The Runner copies Context.Predict here. Only
	// StratSpeed runs are affected.
	Predict bool
	// Limit caps the simulated time (default 2000 s).
	Limit time.Duration
	// Tracer, when non-nil, receives the run's scheduling events. The
	// Runner injects a per-cell ring here when Context.Trace is set.
	Tracer trace.Tracer
	// Metrics, when non-nil, collects the run's counters and
	// distributions. The Runner injects a fresh registry per cell when
	// Context.Metrics is set.
	Metrics *metrics.Registry
}

// RunResult is the outcome of one measurement.
type RunResult struct {
	// Elapsed is the application's wall time.
	Elapsed time.Duration
	// Speedup is serial work / elapsed.
	Speedup float64
	// AppMigrations counts migrations of the app's threads.
	AppMigrations int
	// SpeedbalMigrations counts the speed balancer's pulls.
	SpeedbalMigrations int
	// PredictPulls/Hits/Misses are the speed balancer's prediction
	// audit counters (zero when prediction is off).
	PredictPulls, PredictHits, PredictMisses int
	// Stats is the machine's counter snapshot.
	Stats sim.Stats
	// App is the finished application (thread exec times etc.).
	App *spmd.App
	// Machine allows further inspection.
	Machine *sim.Machine
	// Truncated reports that the simulated time limit expired before the
	// application finished (Elapsed is then the limit and Speedup 0).
	Truncated bool
	// Out carries a custom cell's payload when the fields above don't
	// fit (SubmitFunc cells); aggregate it in the ordered result
	// callback, never through shared state in the cell function.
	Out any
}

// Run executes one measurement.
func Run(o RunOpts) RunResult {
	tp := o.Topo()
	cfg := sim.Config{Seed: o.Seed, Tracer: o.Tracer, Metrics: o.Metrics}
	if o.Strategy == StratDWRR {
		cfg.NewScheduler, _ = dwrr.NewFactory()
	} else {
		cfg.NewScheduler = cfs.Factory()
	}
	m := sim.New(tp, cfg)

	var sb *speedbal.Balancer
	switch o.Strategy {
	case StratPinned, StratLoad, StratSpeed:
		m.AddActor(linuxlb.Default())
	case StratULE:
		m.AddActor(ule.Default())
	case StratDWRR:
		// DWRR balances via round stealing inside the scheduler.
	default:
		panic(fmt.Sprintf("exp: unknown strategy %q", o.Strategy))
	}

	if o.Perturb.Active() {
		// Added after the balancer so the RNG split order (balancer,
		// injector, app) is fixed regardless of which families are on.
		m.AddActor(perturb.New(o.Perturb))
	}

	if o.Setup != nil {
		o.Setup(m)
	}

	app := spmd.Build(m, o.Spec)
	// The stop-on-completion hook is a machine-global effect that can
	// fire from whichever shard retires the app's last task, so this run
	// must never open a parallel window, whatever shard count its machine
	// gets. Long-running workloads that want windowed execution drive
	// the machine directly (sim.Machine.Run).
	m.BlockWindows()
	app.OnDone(func(*spmd.App) { m.Stop() })
	switch o.Strategy {
	case StratPinned:
		app.StartPinned()
	case StratSpeed:
		scfg := speedbal.DefaultConfig()
		if o.SpeedCfg != nil {
			scfg = *o.SpeedCfg
		}
		if o.Predict && !scfg.Predict.Enabled {
			scfg.Predict = predict.DefaultConfig()
		}
		sb = speedbal.New(scfg)
		sb.Launch(m, app)
	default:
		app.Start()
	}

	limit := o.Limit
	if limit == 0 {
		limit = 2000 * time.Second
	}
	m.Run(int64(limit))
	recordMachine(m, o.Metrics)

	res := RunResult{
		Elapsed: app.Elapsed(),
		Speedup: app.Speedup(),
		Stats:   m.Stats,
		App:     app,
		Machine: m,
	}
	for _, t := range app.Tasks {
		res.AppMigrations += t.Migrations
	}
	if sb != nil {
		res.SpeedbalMigrations = sb.Migrations
		res.PredictPulls = sb.PredictPulls
		res.PredictHits = sb.PredictHits
		res.PredictMisses = sb.PredictMisses
	}
	if !app.Done() {
		// Surface truncation loudly: experiments must size Limit.
		res.Elapsed = limit
		res.Speedup = 0
		res.Truncated = true
	}
	return res
}

// recordMachine adds a finished run's per-core busy fractions and engine
// counters to reg; a nil reg records nothing.
func recordMachine(m *sim.Machine, reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m.Sync()
	elapsed := m.Now()
	for _, c := range m.Cores {
		frac := 0.0
		if elapsed > 0 {
			frac = float64(c.BusyTime) / float64(elapsed)
		}
		reg.Gauge(fmt.Sprintf("sim.core%02d.busy_frac", c.ID())).Set(frac)
	}
	reg.Counter("sim.context_switches").Add(int64(m.Stats.ContextSwitches))
	reg.Counter("sim.wakeups").Add(int64(m.Stats.Wakeups))
	reg.Counter("sim.events").Add(int64(m.Stats.Events))
}

// ScaleSpec shrinks a spec's iteration count by the context scale,
// keeping at least one iteration (and for single-iteration EP-style
// specs, shrinking the work instead).
func ScaleSpec(ctx *Context, s spmd.Spec) spmd.Spec {
	if ctx.Scale <= 1 {
		return s
	}
	if s.Iterations > 1 {
		s.Iterations /= ctx.Scale
		if s.Iterations < 1 {
			s.Iterations = 1
		}
	} else {
		s.WorkPerIteration /= float64(ctx.Scale)
	}
	return s
}
