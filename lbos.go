// Package lbos is a reproduction of "Load Balancing on Speed" (Hofmeyr,
// Iancu, Blagojević — PPoPP 2010): user-level speed balancing for SPMD
// parallel applications on multicore systems, together with the
// simulated multicore substrate, the baselines it is evaluated against
// (Linux queue-length load balancing, DWRR, FreeBSD ULE, static
// pinning), the NAS-like benchmark models, and the experiment harness
// that regenerates every table and figure of the paper's evaluation.
//
// # Quick start
//
//	sys := lbos.NewSystem(lbos.Tigerton(), lbos.WithSeed(42))
//	app := sys.BuildApp(lbos.AppSpec{
//	        Name: "solver", Threads: 16, Iterations: 100,
//	        WorkPerIteration: 50 * lbos.Millisecond,
//	        Model: lbos.UPC(),
//	})
//	bal := sys.SpeedBalance(app, lbos.SpeedConfig{})
//	sys.RunUntil(app)
//	fmt.Println(app.Elapsed(), app.Speedup(), bal.Migrations)
//
// The three layers underneath are available for finer control:
// machines and scheduling domains (NewSystem options), tasks and
// programs (System.Machine), and the experiment harness
// (RunExperiment / Experiments).
package lbos

import (
	"io"
	"time"

	"repro/internal/cfs"
	"repro/internal/competing"
	"repro/internal/cpuset"
	"repro/internal/dwrr"
	"repro/internal/exp"
	"repro/internal/linuxlb"
	"repro/internal/metrics"
	"repro/internal/npb"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ule"
)

// Millisecond is the work equivalent of one millisecond on a unit-speed
// core (work is measured in speed-1.0 nanoseconds).
const Millisecond = 1e6

// Re-exported substrate types. The aliases make the internal packages'
// types part of the public API without duplicating them.
type (
	// Topology describes a simulated machine (cores, caches, NUMA
	// nodes, scheduling domains, memory-bandwidth domains).
	Topology = topo.Topology
	// Machine is the discrete-event simulator.
	Machine = sim.Machine
	// Task is the unit of scheduling.
	Task = task.Task
	// App is a running SPMD application.
	App = spmd.App
	// AppSpec describes an SPMD application.
	AppSpec = spmd.Spec
	// Model is a programming-model preset (barrier wait policy).
	Model = spmd.Model
	// Benchmark is a calibrated NAS-like benchmark model.
	Benchmark = npb.Benchmark
	// SpeedConfig tunes the speed balancer (System.SpeedBalance runs
	// the zero value as the paper's parameters).
	SpeedConfig = speedbal.Config
	// SpeedBalancer is the paper's user-level balancer.
	SpeedBalancer = speedbal.Balancer
	// CPUSet is a set of core IDs.
	CPUSet = cpuset.Set
	// Experiment regenerates one paper table or figure.
	Experiment = exp.Experiment
	// ExperimentContext carries repetitions/scale/seed.
	ExperimentContext = exp.Context
	// ResultTable is a rendered experiment result.
	ResultTable = exp.Table
	// Tracer receives the simulator's scheduling events (see WithTracer).
	Tracer = trace.Tracer
	// TraceEvent is one scheduling event.
	TraceEvent = trace.Event
	// TraceRing is a bounded in-memory event buffer.
	TraceRing = trace.Ring
	// MetricsRegistry collects scheduler counters, gauges and histograms
	// (see WithMetrics).
	MetricsRegistry = metrics.Registry
	// PerturbConfig describes a deterministic fault-injection mix:
	// kernel-noise bursts, core hot-unplug/replug, per-core frequency
	// drift and interrupt storms (see System.Inject).
	PerturbConfig = perturb.Config
	// PerturbInjector drives a PerturbConfig's schedule on one machine.
	PerturbInjector = perturb.Injector
)

// Canned perturbation profiles and the -perturb flag parser.
var (
	// KernelNoise is IRQ/SMM-style theft: invisible to run queues,
	// visible to speed measurement.
	KernelNoise = perturb.DefaultNoise
	// KthreadNoise is schedulable noise: pinned nice −20 daemons whose
	// bursts land on run queues, goading queue-length balancers.
	KthreadNoise = perturb.KthreadNoise
	// HotplugChurn unplugs and replugs cores.
	HotplugChurn = perturb.DefaultHotplug
	// FreqDrift makes per-core frequency factors walk randomly.
	FreqDrift = perturb.DefaultFreq
	// IRQStorm freezes one socket at a time.
	IRQStorm = perturb.DefaultStorm
	// ParsePerturb parses a comma-separated family list ("noise,
	// kthread, hotplug, freq, storm, all") into a PerturbConfig.
	ParsePerturb = perturb.Parse
)

// NewTraceRing builds an event buffer keeping the most recent cap
// events (pass it to WithTracer).
func NewTraceRing(cap int) *TraceRing { return trace.NewRing(cap) }

// NewMetricsRegistry builds an empty metrics registry (pass it to
// WithMetrics).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// WriteChromeTrace exports events as Chrome trace-event JSON, loadable
// in ui.perfetto.dev: one timeline row per core, run stints as slices,
// scheduler decisions as instants.
func WriteChromeTrace(w io.Writer, label string, r *TraceRing) error {
	cw := trace.NewChromeWriter(w)
	cw.BeginCell(label, r.Dropped())
	for _, e := range r.Events() {
		cw.WriteEvent(e)
	}
	return cw.Close()
}

// Machine presets (Table 1 plus extras).
var (
	// Tigerton is the UMA quad-socket quad-core Intel Xeon E7310.
	Tigerton = topo.Tigerton
	// Barcelona is the NUMA quad-socket quad-core AMD Opteron 8350.
	Barcelona = topo.Barcelona
	// Nehalem is a 2-socket 4-core 2-way-SMT machine.
	Nehalem = topo.Nehalem
	// SMP builds a flat UMA machine with n identical cores.
	SMP = topo.SMP
	// Asymmetric builds a flat machine with per-core clock multipliers.
	Asymmetric = topo.Asymmetric
)

// Speed-measure choices for SpeedConfig.Measure (the §7 future-work
// extension: a retired-work performance counter instead of exec/real).
const (
	MeasureCPUShare = speedbal.MeasureCPUShare
	MeasureWorkRate = speedbal.MeasureWorkRate
)

// Programming-model presets (§3: how each runtime's threads wait).
var (
	// UPC yields at barriers (Berkeley UPC default).
	UPC = spmd.UPC
	// UPCSleep polls with usleep (the paper's modified runtime).
	UPCSleep = spmd.UPCSleep
	// MPI yields at barriers.
	MPI = spmd.MPI
	// OpenMPDefault spins for KMP_BLOCKTIME (200 ms) then sleeps.
	OpenMPDefault = spmd.OpenMPDefault
	// OpenMPInfinite polls forever (KMP_BLOCKTIME=infinite).
	OpenMPInfinite = spmd.OpenMPInfinite
)

// Benchmark models calibrated to Table 2.
var (
	EP = npb.EP
	BT = npb.BT
	CG = npb.CG
	FT = npb.FT
	IS = npb.IS
	SP = npb.SP
	// BenchmarkSuite returns all of the above.
	BenchmarkSuite = npb.Suite
)

// Cores builds a CPUSet of the first n cores (taskset-style restriction).
func Cores(n int) CPUSet { return cpuset.All(n) }

// CoreList builds a CPUSet from explicit core IDs.
func CoreList(ids ...int) CPUSet { return cpuset.Of(ids...) }

// System bundles a machine with an OS configuration: per-core
// schedulers plus a load balancer.
type System struct {
	m *sim.Machine
}

// Option configures NewSystem.
type Option func(*config)

type config struct {
	seed   uint64
	osKind osKind
	simCfg sim.Config
}

type osKind int

const (
	osLinux osKind = iota
	osULE
	osDWRR
	osNone
)

// WithSeed sets the RNG seed (runs are pure functions of topology,
// workload and seed).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithULE replaces the Linux balancer with the FreeBSD ULE model.
func WithULE() Option { return func(c *config) { c.osKind = osULE } }

// WithDWRR replaces per-core scheduling and balancing with Distributed
// Weighted Round-Robin.
func WithDWRR() Option { return func(c *config) { c.osKind = osDWRR } }

// WithoutBalancing disables OS load balancing entirely (per-core CFS
// only) — useful for controlled experiments.
func WithoutBalancing() Option { return func(c *config) { c.osKind = osNone } }

// WithTracer streams every scheduling event (migrations, balancer
// decisions, barrier arrivals, run stints) to t. Tracing observes the
// simulation without perturbing it: a traced run produces bit-identical
// results to an untraced one.
func WithTracer(t Tracer) Option {
	return func(c *config) { c.simCfg.Tracer = t }
}

// WithMetrics collects scheduler counters and distributions into r.
func WithMetrics(r *MetricsRegistry) Option {
	return func(c *config) { c.simCfg.Metrics = r }
}

// NewSystem builds a simulated machine running the configured OS
// (default: CFS per core plus the Linux 2.6.28-style load balancer).
func NewSystem(t *Topology, opts ...Option) *System {
	var c config
	for _, o := range opts {
		o(&c)
	}
	c.simCfg.Seed = c.seed
	switch c.osKind {
	case osDWRR:
		c.simCfg.NewScheduler, _ = dwrr.NewFactory()
	default:
		c.simCfg.NewScheduler = cfs.Factory()
	}
	m := sim.New(t, c.simCfg)
	switch c.osKind {
	case osLinux:
		m.AddActor(linuxlb.Default())
	case osULE:
		m.AddActor(ule.Default())
	}
	return &System{m: m}
}

// Machine exposes the underlying simulator for task-level control.
func (s *System) Machine() *Machine { return s.m }

// BuildApp creates an SPMD application without starting it.
func (s *System) BuildApp(spec AppSpec) *App { return spmd.Build(s.m, spec) }

// StartApp builds and starts an application through the OS placement
// path (fork semantics).
func (s *System) StartApp(spec AppSpec) *App {
	a := s.BuildApp(spec)
	a.Start()
	return a
}

// StartPinned builds and starts an application with its threads pinned
// round-robin over the allowed cores.
func (s *System) StartPinned(spec AppSpec) *App {
	a := s.BuildApp(spec)
	a.StartPinned()
	return a
}

// SpeedBalance launches the application under the paper's user-level
// speed balancer: threads are pinned round-robin and then migrated to
// equalise their speeds. A zero SpeedConfig uses the paper's parameters,
// speedbal.DefaultConfig (100 ms interval with jitter, T_s = 0.9,
// two-interval block, NUMA blocked, 1% sampling noise). A non-zero one
// is taken as given, except that a zero Interval or Threshold gets the
// paper's value.
func (s *System) SpeedBalance(app *App, cfg SpeedConfig) *SpeedBalancer {
	if cfg == (SpeedConfig{}) {
		cfg = speedbal.DefaultConfig()
	}
	b := speedbal.New(cfg)
	b.Launch(s.m, app)
	return b
}

// Inject composes a deterministic perturbation schedule onto the
// system. The schedule is a pure function of the configuration and the
// system seed, so perturbed runs stay reproducible. Call before the
// run starts; the returned injector's counters (NoiseBursts, Hotplugs,
// FreqSteps, Storms) report what was injected.
func (s *System) Inject(cfg PerturbConfig) *PerturbInjector {
	in := perturb.New(cfg)
	s.m.AddActor(in)
	return in
}

// AddCPUHog pins a compute-only competitor to the given core.
func (s *System) AddCPUHog(core int) *Task { return competing.CPUHog(s.m, core) }

// AddMakeJ runs a make -j style competitor with the given width.
func (s *System) AddMakeJ(width int) *competing.MakeJ {
	mk := &competing.MakeJ{Width: width}
	s.m.AddActor(mk)
	return mk
}

// RunFor advances simulated time by d.
func (s *System) RunFor(d time.Duration) { s.m.RunFor(d) }

// RunUntil runs until every given app completes (or the default 2000 s
// safety limit).
func (s *System) RunUntil(apps ...*App) {
	remaining := len(apps)
	for _, a := range apps {
		a.OnDone(func(*App) {
			remaining--
			if remaining == 0 {
				s.m.Stop()
			}
		})
	}
	s.m.Run(int64(2000 * time.Second))
}

// Experiments lists the registered paper experiments.
func Experiments() []*Experiment { return exp.All() }

// ExperimentByID looks up one experiment.
func ExperimentByID(id string) (*Experiment, error) { return exp.ByID(id) }
