package spmd

import (
	"fmt"
	"time"

	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Model is a programming-model preset: it fixes the barrier wait policy
// the way each runtime in the paper implements synchronization (§3).
type Model struct {
	// Name identifies the runtime ("upc", "mpi", "openmp", ...).
	Name string
	// Policy is the barrier wait policy.
	Policy task.WaitPolicy
	// Blocktime is the spin budget for WaitSpinThenBlock.
	Blocktime time.Duration
}

// UPC: the default Berkeley UPC barrier calls sched_yield when
// oversubscribed.
func UPC() Model { return Model{Name: "upc", Policy: task.WaitYield} }

// UPCSleep: the paper's modified UPC runtime calling usleep(1)
// (the "LOAD-SLEEP" configuration).
func UPCSleep() Model { return Model{Name: "upc-sleep", Policy: task.WaitPollSleep} }

// MPI: yielding barriers, like UPC.
func MPI() Model { return Model{Name: "mpi", Policy: task.WaitYield} }

// OpenMPDefault: the Intel runtime's default barrier spins for
// KMP_BLOCKTIME (200 ms) and then sleeps ("DEF" in the paper's figures).
func OpenMPDefault() Model {
	return Model{Name: "openmp-def", Policy: task.WaitSpinThenBlock, Blocktime: 200 * time.Millisecond}
}

// OpenMPInfinite: KMP_BLOCKTIME=infinite polls continuously ("INF").
func OpenMPInfinite() Model { return Model{Name: "openmp-inf", Policy: task.WaitSpin} }

// Spec describes one SPMD application instance.
type Spec struct {
	// Name labels the application's tasks (Group).
	Name string
	// Threads is the number of SPMD tasks.
	Threads int
	// Iterations is the number of compute+barrier rounds.
	Iterations int
	// WorkPerIteration is the per-thread work between barriers, in
	// speed-1.0 nanoseconds. The paper's S (inter-barrier time) at one
	// thread per unit-speed core.
	WorkPerIteration float64
	// WorkJitter adds ±WorkJitter×WorkPerIteration uniform noise per
	// thread per iteration, modelling data-dependent imbalance. Zero
	// for the regular NAS kernels.
	WorkJitter float64
	// Model fixes the synchronization implementation.
	Model Model
	// RSSBytes is the per-thread resident set (drives migration cost).
	RSSBytes int64
	// MemIntensity in [0,1] scales the NUMA remote-memory penalty.
	MemIntensity float64
	// Affinity restricts the app to a core subset (taskset); zero means
	// all cores.
	Affinity cpuset.Set
	// Nice is the task priority.
	Nice int
}

// App is a started SPMD application: its tasks, barrier, and completion
// bookkeeping.
type App struct {
	Spec    Spec
	Tasks   []*task.Task
	Barrier *Barrier

	m        *sim.Machine
	started  int64
	finished int64
	done     int
	onDone   []func(a *App)
}

// Build creates the application's tasks on the machine without starting
// them: the caller (an experiment or a balancer setup) decides placement.
func Build(m *sim.Machine, spec Spec) *App {
	if spec.Threads < 1 {
		panic(fmt.Sprintf("spmd: app %q with %d threads", spec.Name, spec.Threads))
	}
	if spec.Affinity.Empty() {
		spec.Affinity = m.Topo.AllCores()
	}
	a := &App{Spec: spec, Barrier: NewBarrier(spec.Threads), m: m}
	rng := m.RNG()
	for i := 0; i < spec.Threads; i++ {
		prog := &workerProgram{app: a, rng: rng.Split()}
		t := m.NewTask(fmt.Sprintf("%s.%d", spec.Name, i), prog)
		t.Group = spec.Name
		t.Affinity = spec.Affinity
		t.RSS = spec.RSSBytes
		t.MemIntensity = spec.MemIntensity
		t.Nice = spec.Nice
		t.Sched.Weight = task.NiceWeight(spec.Nice)
		a.Tasks = append(a.Tasks, t)
	}
	m.OnTaskDone(a.taskDone)
	return a
}

// Start launches all tasks through the machine placer (the OS fork
// placement path). Simultaneous starts expose the stale-idleness
// clumping the paper describes.
func (a *App) Start() {
	a.started = a.m.Now()
	for _, t := range a.Tasks {
		a.m.Start(t)
	}
}

// StartPinned launches the tasks round-robin over the allowed cores,
// pinning each to its core (the PINNED configuration, and the initial
// distribution speedbalancer establishes before managing the app).
func (a *App) StartPinned() {
	a.started = a.m.Now()
	cores := a.Spec.Affinity.Cores()
	for i, t := range a.Tasks {
		c := cores[i%len(cores)]
		t.Affinity = cpuset.Of(c)
		a.m.StartOn(t, c)
	}
}

// OnDone registers fn to run when the last task exits.
func (a *App) OnDone(fn func(a *App)) { a.onDone = append(a.onDone, fn) }

func (a *App) taskDone(t *task.Task) {
	if t.Group != a.Spec.Name {
		return
	}
	a.done++
	if a.done == len(a.Tasks) {
		// The exiting task's own finish stamp, not Machine.Now: inside a
		// parallel shard window the machine clock lags the shard clock
		// that actually retired the task.
		a.finished = t.FinishedAt
		for _, fn := range a.onDone {
			fn(a)
		}
	}
}

// Done reports whether every task has exited.
func (a *App) Done() bool { return a.done == len(a.Tasks) }

// Elapsed returns the wall time from Start to the last exit (or to now
// if unfinished).
func (a *App) Elapsed() time.Duration {
	if a.Done() {
		return time.Duration(a.finished - a.started)
	}
	return time.Duration(a.m.Now() - a.started)
}

// SerialWork returns the total work of the app (threads × iterations ×
// work), the runtime of a perfect single unit-speed core, used as the
// speedup baseline.
func (a *App) SerialWork() time.Duration {
	s := a.Spec
	return time.Duration(float64(s.Threads) * float64(s.Iterations) * s.WorkPerIteration)
}

// Speedup returns SerialWork / Elapsed.
func (a *App) Speedup() float64 {
	e := a.Elapsed()
	if e <= 0 {
		return 0
	}
	return float64(a.SerialWork()) / float64(e)
}

// workerProgram is one SPMD thread: Iterations × (compute; barrier).
type workerProgram struct {
	app  *App
	rng  *xrand.RNG
	iter int
	// inBarrier alternates compute and barrier steps.
	inBarrier bool
}

// Next implements task.Program.
func (p *workerProgram) Next(t *task.Task, now int64) task.Action {
	s := &p.app.Spec
	if p.inBarrier {
		p.inBarrier = false
		p.iter++
		return task.WaitFor(p.app.Barrier, s.Model.Policy, s.Model.Blocktime)
	}
	if p.iter >= s.Iterations {
		return task.Exit()
	}
	w := s.WorkPerIteration
	if s.WorkJitter > 0 {
		w *= 1 + s.WorkJitter*(2*p.rng.Float64()-1)
	}
	p.inBarrier = true
	return task.Compute(w)
}
