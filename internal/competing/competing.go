// Package competing provides the multiprogrammed workloads the paper
// shares the machine with in §6.3: a pure-compute "cpu-hog", a make -j
// style build (memory- and I/O-using subprocess spawner), and a simple
// interactive task, all unrelated to the managed parallel application
// and therefore balanced by the OS, not by speedbalancer.
package competing

import (
	"fmt"
	"time"

	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xrand"
)

// CPUHog starts a compute-only task pinned to the given core (the
// Figure 5 competitor: "a compute-intensive cpu-hog that uses no
// memory" pinned to the first core). It returns the task.
func CPUHog(m *sim.Machine, core int) *task.Task {
	t := m.NewTask(fmt.Sprintf("cpu-hog.%d", core), &task.ComputeForever{Chunk: 1e9})
	t.Affinity = cpuset.Of(core)
	m.StartOn(t, core)
	return t
}

// A make -j compile job's fixed size.
const (
	// jobWork is the mean compute per job (speed-1.0 ns: 80 ms).
	jobWork = 80e6
	// jobRSS is each job's resident set (64 MB).
	jobRSS = 64 << 20
)

// MakeJ models "make -j N": a driver that keeps up to Width compile
// jobs in flight. Each job computes for a random duration, interleaved
// with I/O sleeps (reading sources, writing objects), then exits and is
// replaced — so tasks continually enter and leave run queues, exercising
// the OS placement and balancing paths. Jobs are unpinned: the OS
// balances them freely.
type MakeJ struct {
	// Width is the -j parallelism.
	Width int
	// Affinity restricts jobs to a core subset; zero means all cores.
	Affinity cpuset.Set
	// Duration stops spawning after this much simulated time runs out
	// (0 = run forever).
	Duration time.Duration

	m       *sim.Machine
	rng     *xrand.RNG
	stopped bool
	// JobsFinished counts completed jobs.
	JobsFinished int
}

// Start implements sim.Actor.
func (mk *MakeJ) Start(m *sim.Machine) {
	mk.m = m
	mk.rng = m.RNG()
	if mk.Width <= 0 {
		mk.Width = 4
	}
	if mk.Affinity.Empty() {
		mk.Affinity = m.Topo.AllCores()
	}
	stopAt := int64(-1)
	if mk.Duration > 0 {
		stopAt = m.Now() + int64(mk.Duration)
	}
	m.OnTaskDone(func(t *task.Task) {
		if t.Group != "make" || mk.stopped {
			return
		}
		mk.JobsFinished++
		if stopAt >= 0 && mk.m.Now() >= stopAt {
			return
		}
		// The driver spawns a replacement job after a brief fork gap.
		mk.m.NewTimer(func(int64) { mk.spawn() }).ScheduleAfter(200 * time.Microsecond)
	})
	for i := 0; i < mk.Width; i++ {
		mk.spawn()
	}
}

// Stop ceases respawning; in-flight jobs drain.
func (mk *MakeJ) Stop() { mk.stopped = true }

func (mk *MakeJ) spawn() {
	if mk.stopped {
		return
	}
	// A compile job: read sources (I/O sleep), compute in bursts with
	// occasional page-cache stalls, write output (I/O sleep).
	work := jobWork * (0.5 + mk.rng.Float64())
	bursts := 4
	actions := []task.Action{task.Sleep(time.Duration(1+mk.rng.Intn(3)) * time.Millisecond)}
	for i := 0; i < bursts; i++ {
		actions = append(actions, task.Compute(work/float64(bursts)))
		if i < bursts-1 {
			actions = append(actions, task.Sleep(500*time.Microsecond))
		}
	}
	actions = append(actions, task.Sleep(2*time.Millisecond))
	t := mk.m.NewTask(fmt.Sprintf("make.job%d", mk.JobsFinished), &task.Seq{Actions: actions})
	t.Group = "make"
	t.Affinity = mk.Affinity
	t.RSS = jobRSS
	t.MemIntensity = 0.3
	mk.m.Start(t)
}

// Interactive models a lightly loaded interactive task: short compute
// bursts separated by long sleeps (quiescent "for long periods relative
// to cpu-intensive applications", §2). The OS sleeper credit keeps its
// latency low without affecting throughput much.
type Interactive struct {
	// Period is the think time between bursts (default 100 ms).
	Period time.Duration
	// Burst is the compute per activation (default 2 ms).
	Burst float64

	Task *task.Task
}

// Start implements sim.Actor.
func (ia *Interactive) Start(m *sim.Machine) {
	if ia.Period == 0 {
		ia.Period = 100 * time.Millisecond
	}
	if ia.Burst == 0 {
		ia.Burst = 2e6
	}
	ia.Task = m.NewTask("interactive", &task.Loop{
		Body: []task.Action{task.Compute(ia.Burst), task.Sleep(ia.Period)},
	})
	m.Start(ia.Task)
}
