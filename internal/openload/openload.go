// Package openload generates open-system workloads: jobs arrive at the
// machine from outside, run to completion, and depart, at an offered
// load ρ the caller dials. This is the queueing-theoretic complement to
// the paper's closed batches — §6 measures fixed thread sets to
// completion, while a deployment faces a stream of interactive bursts,
// batch jobs and parallel programs whose response time is the metric
// that matters. The generator lets every balancer in the repo be scored
// on mean/p95/p99 sojourn time under identical, seeded arrival
// schedules (the open-bakeoff experiment).
//
// Determinism contract: every arrival schedule is a pure function of
// the machine seed. Each job class owns an RNG split off the machine
// stream in class order, so its Poisson arrival process is independent
// of every other class — adding a class appends a split and perturbs no
// existing schedule. Arrivals fire from timers on the global control
// queue: task admission is a machine-global event and never happens
// inside a parallel shard window. The generator's job table and record
// list are machine-global too, and task-exit hooks can otherwise fire
// on shard workers, so Start calls Machine.BlockWindows — the sharded
// event queue and its deterministic merge stay active, only the
// parallel drain is withheld (exactly the posture exp.Run takes for its
// own machine-global completion hook).
package openload

import (
	"fmt"
	"time"

	"repro/internal/cpuset"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/xrand"
)

// Group is the task group every generated job belongs to, so a
// group-aware balancer (speedbal's RescanGroup) can adopt arrivals.
const Group = "open"

// Class describes one job class of the open workload.
type Class struct {
	// Name labels the class in records and task names.
	Name string
	// Weight is the class's absolute share of the offered load: the
	// class arrives at rate Rho·Weight·capacity/Work. Weights are NOT
	// normalised — a mix whose weights sum to 1 offers exactly Rho; a
	// class appended later adds its own load without changing any
	// existing class's arrival rate (or, with the per-class RNG
	// splits, its arrival times).
	Weight float64
	// Work is the job's total mean work in speed-1.0 nanoseconds,
	// summed over all of its threads.
	Work float64
	// Threads is the job's parallel width; 1 (or 0) is sequential.
	Threads int
	// Iterations is the barrier-round count of a parallel job
	// (default 1: compute then one final barrier, EP-style).
	Iterations int
	// Bursts splits a sequential job into compute bursts separated by
	// Sleep — the interactive think-time pattern (default 1: one
	// uninterrupted compute, the batch pattern).
	Bursts int
	// Sleep is the think time between bursts.
	Sleep time.Duration
	// Model fixes the synchronization runtime of parallel jobs
	// (default UPC: yielding barriers).
	Model spmd.Model
	// Nice is the task priority.
	Nice int
}

// Config tunes the generator.
type Config struct {
	// Classes is the job mix; nil takes DefaultClasses.
	Classes []Class
	// Rho is the offered load as a fraction of machine capacity
	// (Σ arrival-rate × work = Rho × Σ core speeds). Stable queues
	// need Rho < 1; Rho ≥ 1 is permitted for saturation studies.
	Rho float64
	// Horizon bounds the arrival window: no job arrives after
	// Start + Horizon. Zero means arrivals never stop (steady-state
	// benchmarking); jobs in flight at the horizon still complete.
	Horizon time.Duration
	// FixedAlloc admits each job onto a fixed round-robin core
	// partition (threads pinned at arrival, never migrated) — an
	// EQUI-style static-allocation baseline against which the
	// balancers' dynamic placement is scored.
	FixedAlloc bool
}

// DefaultClasses is the bakeoff mix: interactive bursts dominate the
// arrival count, batch jobs the per-job work, and malleable parallel
// jobs exercise the barrier path.
func DefaultClasses() []Class {
	return []Class{
		{Name: "inter", Weight: 0.5, Work: 20e6, Bursts: 4, Sleep: 5 * time.Millisecond},
		{Name: "batch", Weight: 0.2, Work: 160e6},
		{Name: "par", Weight: 0.3, Work: 80e6, Threads: 4, Iterations: 8},
	}
}

// Record is one completed job's response-time accounting.
type Record struct {
	// Class is the job class name.
	Class string
	// ArrivedAt is the admission time (ns sim time).
	ArrivedAt int64
	// Sojourn is arrival → last-thread-exit, the open-system response
	// time.
	Sojourn time.Duration
	// FirstRun is arrival → first dispatch of the slowest thread: how
	// long admission waited for a CPU.
	FirstRun time.Duration
	// WakeMean and WakeMax aggregate wake-to-run latency over every
	// wakeup of every thread of the job; Wakes is the wakeup count
	// (0 for a job that never slept — its WakeMean carries no signal).
	WakeMean, WakeMax time.Duration
	Wakes             int
}

// job tracks one in-flight job.
type job struct {
	class     int
	arrivedAt int64
	live      int

	wakeSum, wakeMax int64
	wakeN            int
	firstRun         int64
}

// Gen is the generator; register it with Machine.AddActor.
type Gen struct {
	cfg     Config
	classes []Class
	m       *sim.Machine
	streams []*xrand.RNG
	timers  []*sim.Timer
	rates   []float64 // per-class arrival rate, jobs per ns
	endAt   int64     // last admissible arrival time (MaxInt64 if endless)

	// steps holds each sequential class's action list, built once and
	// shared by every job of the class (nil for parallel classes).
	steps [][]task.Action

	jobs   map[*task.Task]*job
	cursor int // FixedAlloc round-robin core cursor
	nextID int

	// Records lists completed jobs in completion order (deterministic:
	// exits retire in merged event order at any shard count).
	Records []Record
	// Admitted and Completed count jobs; their difference is the
	// in-flight (or abandoned-at-horizon) population.
	Admitted, Completed int

	stopped bool
}

// sojournBuckets spans job sojourns from 1 ms to ~17 min, geometric ×2.
var sojournBuckets = metrics.ExpBuckets(1e6, 2, 20)

// wakeBuckets spans wake-to-run latencies from 1 µs to ~4 s.
var wakeBuckets = metrics.ExpBuckets(1e3, 4, 12)

// New validates the configuration and builds a generator.
func New(cfg Config) *Gen {
	if cfg.Classes == nil {
		cfg.Classes = DefaultClasses()
	}
	if cfg.Rho <= 0 {
		panic(fmt.Sprintf("openload: non-positive offered load %v", cfg.Rho))
	}
	for i, c := range cfg.Classes {
		if c.Weight <= 0 || c.Work <= 0 {
			panic(fmt.Sprintf("openload: class %d (%q) needs positive Weight and Work", i, c.Name))
		}
	}
	g := &Gen{
		cfg:     cfg,
		classes: append([]Class(nil), cfg.Classes...),
		jobs:    make(map[*task.Task]*job),
	}
	g.steps = make([][]task.Action, len(g.classes))
	for k, c := range g.classes {
		if c.Threads > 1 {
			continue
		}
		// Bursts computes separated by Sleep. The final burst ends the
		// job; a trailing think time would pad every interactive
		// sojourn by Sleep.
		bursts := max(c.Bursts, 1)
		for i := 0; i < bursts; i++ {
			if i > 0 {
				g.steps[k] = append(g.steps[k], task.Sleep(c.Sleep))
			}
			g.steps[k] = append(g.steps[k], task.Compute(c.Work/float64(bursts)))
		}
	}
	return g
}

// Start implements sim.Actor: split one arrival stream per class, arm
// one control-queue timer per class, and hook task exits.
func (g *Gen) Start(m *sim.Machine) {
	g.m = m
	m.BlockWindows()
	var capacity float64
	for _, c := range m.Topo.Cores {
		capacity += c.BaseSpeed
	}
	g.endAt = int64(^uint64(0) >> 1)
	if g.cfg.Horizon > 0 {
		g.endAt = m.Now() + int64(g.cfg.Horizon)
	}
	g.rates = make([]float64, len(g.classes))
	g.streams = make([]*xrand.RNG, len(g.classes))
	g.timers = make([]*sim.Timer, len(g.classes))
	rng := m.RNG()
	for k := range g.classes {
		k := k
		// λ_k work_k = Rho·weight_k·capacity, so Σ λ_k work_k = Rho·capacity.
		g.rates[k] = g.cfg.Rho * g.classes[k].Weight * capacity / g.classes[k].Work
		g.streams[k] = rng.Split()
		g.timers[k] = m.NewTimer(func(now int64) { g.arrive(k, now) })
		g.scheduleNext(k, m.Now())
	}
	m.OnTaskDone(g.taskDone)
}

// Stop halts further arrivals; jobs in flight still complete.
func (g *Gen) Stop() {
	g.stopped = true
	for _, t := range g.timers {
		t.Stop()
	}
}

// scheduleNext draws class k's next inter-arrival gap and arms its
// timer, unless the arrival would fall past the horizon — the draw
// still happens, so the schedule of every arrival inside the horizon is
// identical whether or not a horizon is set.
func (g *Gen) scheduleNext(k int, now int64) {
	gap := g.streams[k].Exponential(g.rates[k])
	at := now + int64(gap)
	if at > g.endAt {
		return
	}
	g.timers[k].Schedule(at)
}

// arrive admits one class-k job.
func (g *Gen) arrive(k int, now int64) {
	if g.stopped {
		return
	}
	g.admit(k, now)
	g.scheduleNext(k, now)
}

// admit builds the job's tasks and starts them.
func (g *Gen) admit(k int, now int64) {
	c := &g.classes[k]
	threads := max(c.Threads, 1)
	id := g.nextID
	g.nextID++
	j := &job{class: k, arrivedAt: now, live: threads, firstRun: -1}

	body := g.jobBody(k)
	for i := 0; i < threads; i++ {
		t := g.m.NewTask(fmt.Sprintf("%s.%d.%d", c.Name, id, i), program(c, body))
		t.Group = Group
		t.Nice = c.Nice
		t.Sched.Weight = task.NiceWeight(c.Nice)
		g.jobs[t] = j
		if g.cfg.FixedAlloc {
			cores := g.m.Topo.AllCores().Cores()
			core := cores[g.cursor%len(cores)]
			g.cursor++
			t.Affinity = cpuset.Of(core)
			g.m.StartOn(t, core)
		} else {
			g.m.Start(t)
		}
	}
	g.Admitted++
}

// jobBody is the action list every thread of one class-k job runs: the
// class's shared steps, or for a parallel job one compute-and-barrier
// round on the job's own barrier.
func (g *Gen) jobBody(k int) []task.Action {
	c := &g.classes[k]
	if c.Threads <= 1 {
		return g.steps[k]
	}
	model := c.Model
	if model.Name == "" {
		model = spmd.UPC()
	}
	bar := spmd.NewBarrier(c.Threads)
	perIter := c.Work / float64(c.Threads) / float64(max(c.Iterations, 1))
	return []task.Action{task.Compute(perIter), task.WaitFor(bar, model.Policy, model.Blocktime)}
}

// program is one thread of a class-c job running body: the list once
// for a sequential job, once per barrier round for a parallel one.
func program(c *Class, body []task.Action) task.Program {
	if c.Threads > 1 {
		return &task.Loop{Body: body, Iterations: max(c.Iterations, 1)}
	}
	return &task.Seq{Actions: body}
}

// taskDone folds a finished thread into its job, emitting the job's
// record when the last thread departs.
func (g *Gen) taskDone(t *task.Task) {
	j, ok := g.jobs[t]
	if !ok {
		return
	}
	delete(g.jobs, t)
	j.wakeSum += t.WakeLatSum
	j.wakeN += t.WakeLatN
	if t.WakeLatMax > j.wakeMax {
		j.wakeMax = t.WakeLatMax
	}
	if t.FirstRanAt >= 0 {
		if fr := t.FirstRanAt - j.arrivedAt; fr > j.firstRun {
			j.firstRun = fr
		}
	}
	j.live--
	if j.live > 0 {
		return
	}
	rec := Record{
		Class:     g.classes[j.class].Name,
		ArrivedAt: j.arrivedAt,
		Sojourn:   time.Duration(t.FinishedAt - j.arrivedAt),
		WakeMax:   time.Duration(j.wakeMax),
		Wakes:     j.wakeN,
	}
	if j.firstRun >= 0 {
		rec.FirstRun = time.Duration(j.firstRun)
	}
	if j.wakeN > 0 {
		rec.WakeMean = time.Duration(j.wakeSum / int64(j.wakeN))
	}
	g.Records = append(g.Records, rec)
	g.Completed++
	if reg := g.m.Metrics(); reg != nil {
		reg.Histogram("openload.sojourn_ns", sojournBuckets).Observe(float64(rec.Sojourn))
		if j.wakeN > 0 {
			reg.Histogram("openload.wake_ns", wakeBuckets).Observe(float64(rec.WakeMean))
		}
	}
}

// Unfinished counts admitted jobs that have not completed.
func (g *Gen) Unfinished() int { return g.Admitted - g.Completed }
