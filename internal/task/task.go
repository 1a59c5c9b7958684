// Package task defines the unit of scheduling in the simulator: a task
// (the paper follows Linux in not distinguishing threads from processes),
// its program (the sequence of compute, sleep and synchronization actions
// it performs), and the accounting state that schedulers and balancers
// read.
//
// The package is deliberately free of simulator mechanics: the machine in
// package sim drives tasks through their programs, and schedulers mutate
// only the Sched sub-struct reserved for them.
package task

import (
	"time"

	"repro/internal/cpuset"
)

// State is the lifecycle state of a task.
type State int

const (
	// New means the task has been created but not yet placed on a core.
	New State = iota
	// Runnable means the task is on a run queue, not currently executing.
	Runnable
	// Running means the task is currently executing on its core.
	Running
	// Sleeping means the task is off the run queue on a timed sleep
	// (usleep/nanosleep): it will wake when its timer fires.
	Sleeping
	// Blocked means the task is off the run queue waiting for a
	// condition (e.g. a barrier); it wakes when released.
	Blocked
	// Done means the task has exited.
	Done
)

// String returns a short name for the state.
func (s State) String() string {
	switch s {
	case New:
		return "new"
	case Runnable:
		return "runnable"
	case Running:
		return "running"
	case Sleeping:
		return "sleeping"
	case Blocked:
		return "blocked"
	case Done:
		return "done"
	}
	return "invalid"
}

// Sched holds the per-task state owned by the per-core scheduler. CFS
// uses Vruntime and Weight; DWRR additionally uses Round and RoundUsed.
type Sched struct {
	// Vruntime is the CFS virtual runtime in nanoseconds, weighted by
	// priority. While queued it is absolute (on the queue's clock);
	// after Dequeue it is stored relative to QueueClock.
	Vruntime int64
	// QueueClock is the queue clock (min vruntime) captured at the
	// last dequeue, letting a wakeup on the same queue restore the
	// task's absolute position (and so compute the sleeper credit the
	// way the kernel's place_entity does).
	QueueClock int64
	// Weight is the CFS load weight derived from Nice (nice 0 = 1024).
	Weight int64
	// OnQueue reports whether the task is enqueued (or running) on a
	// core's run queue.
	OnQueue bool
	// Round is the DWRR round number the task is currently in.
	Round int
	// RoundUsed is the CPU time consumed in the current DWRR round.
	RoundUsed time.Duration
}

// Task is a schedulable entity.
//
// The fields up to Sched are the ones the machine reads and writes on
// every task it settles and re-arms when a core's occupancy changes (its
// contention walk over a memory domain); they come first so that a
// visit touches as few cache lines as possible.
type Task struct {
	// Run-state for the current action; owned by the machine.
	Cur Exec
	// WarmupLeft is the remaining cache-refill delay the task must pay
	// (accrues exec time but no progress).
	WarmupLeft time.Duration
	// MemIntensity in [0,1] is the fraction of execution bound by
	// memory locality: it scales the NUMA remote-access penalty.
	MemIntensity float64
	// HomeNode is the NUMA node holding the task's pages. -1 until the
	// task first runs (first-touch placement).
	HomeNode int
	// ExecTime is the total CPU time the task has consumed, the
	// numerator of the paper's speed = t_exec / t_real. It includes
	// spin-waiting and migration warmup, exactly as /proc accounting
	// would.
	ExecTime time.Duration
	// WorkDone is the cumulative retired work (speed-1.0 nanoseconds).
	// It is the simulator's stand-in for a retired-instruction
	// performance counter: §7 discusses speed measures "based on
	// sampling performance counters" as an alternative to exec/real.
	// Unlike ExecTime it excludes spin-waiting, warmup stalls and
	// contention losses.
	WorkDone float64
	// LastRanAt is when the task last ran (for the Linux 5 ms cache-hot
	// heuristic).
	LastRanAt int64
	// Sched is owned by the per-core scheduler.
	Sched Sched

	ID   int
	Name string
	// Nice is the Unix nice level in [-20, 19]; 0 is the default.
	Nice int
	// Affinity is the set of cores the task may run on. A single-core
	// set models sched_setaffinity pinning: the Linux balancer will
	// never move such a task, and speedbalancer moves tasks by
	// rewriting this set.
	Affinity cpuset.Set

	// Prog supplies the task's actions. Nil means the task computes
	// forever (used for cpu-hogs built via RunForever).
	Prog Program

	// Group labels related tasks (an application); balancers that are
	// application-aware (speedbalancer) manage one group.
	Group string

	// RSS is the resident set size in bytes, used for migration warmup
	// costs.
	RSS int64

	// State is maintained by the machine.
	State State
	// CoreID is the core the task is assigned to (its run queue), valid
	// once placed.
	CoreID int

	// StartedAt and FinishedAt bracket the task's life (ns sim time).
	StartedAt, FinishedAt int64
	// LastEnqueuedAt is when the task last joined a queue.
	LastEnqueuedAt int64
	// FirstRanAt is when the task first got the CPU (−1 until it has):
	// FirstRanAt − StartedAt is the admission-to-first-run latency of an
	// open-system job.
	FirstRanAt int64
	// WakeLatSum, WakeLatMax and WakeLatN accumulate wake-to-run latency
	// (wakeup enqueue → next dispatch, in ns): the responsiveness metric
	// of interactive open-system workloads. WakeArmed marks a wakeup
	// whose dispatch has not happened yet; the core consumes it. All
	// four are per-task state, so the accounting stays shard-local under
	// the parallel engine.
	WakeLatSum, WakeLatMax int64
	WakeLatN               int
	WakeArmed              bool

	// Migrations counts cross-core moves; speedbalancer pulls the task
	// that has migrated least to avoid hot-potato tasks.
	Migrations int
	// LastMigratedAt is when the task last moved cores.
	LastMigratedAt int64
}

// Exec is the in-progress execution state of a task's current action.
type Exec struct {
	// Kind says what the task is doing when it runs.
	Kind ExecKind
	// WorkLeft is the remaining work (speed-1.0 nanoseconds) of a
	// compute action.
	WorkLeft float64
	// Cond is the condition being waited for (barrier etc.), when Kind
	// is a wait.
	Cond Cond
	// Policy is the wait policy in effect.
	Policy WaitPolicy
	// SpinLeft is the remaining spin budget of a spin-then-block wait
	// (negative means unbounded).
	SpinLeft time.Duration
	// CheckLeft is the CPU time remaining in the current condition
	// check of a yield/poll wait; when it reaches zero the task yields
	// or sleeps, respectively.
	CheckLeft time.Duration
	// PollBackoff is the current usleep length of a poll wait (doubles
	// per unsuccessful check up to the simulator's 2 ms cap).
	PollBackoff time.Duration
	// Released is set by the machine when Cond has been satisfied; the
	// task completes the wait the next time it checks.
	Released bool
	// WakeAt is the absolute wake time of a timed sleep.
	WakeAt int64
}

// ExecKind enumerates what a task does with CPU time.
type ExecKind int

const (
	// ExecIdle means no action is in progress (about to fetch the next).
	ExecIdle ExecKind = iota
	// ExecCompute means retiring work.
	ExecCompute
	// ExecSpin means burning CPU waiting for a condition.
	ExecSpin
	// ExecYieldWait means polling a condition with sched_yield between
	// checks (the UPC/MPI barrier style).
	ExecYieldWait
	// ExecPollWait means polling a condition with short sleeps between
	// checks (the usleep(1) barrier style).
	ExecPollWait
	// ExecBlocked means waiting off-queue for a release.
	ExecBlocked
	// ExecSleep means a timed sleep.
	ExecSleep
	// ExecExited means the task has finished.
	ExecExited
)

// NiceWeight converts a nice level to a CFS load weight. The table
// follows the kernel's geometric ~1.25× per nice step, anchored at
// nice 0 = 1024.
func NiceWeight(nice int) int64 {
	// The kernel's prio_to_weight table for the range we use.
	var table = [40]int64{
		88761, 71755, 56483, 46273, 36291, // -20..-16
		29154, 23254, 18705, 14949, 11916, // -15..-11
		9548, 7620, 6100, 4904, 3906, // -10..-6
		3121, 2501, 1991, 1586, 1277, // -5..-1
		1024, 820, 655, 526, 423, // 0..4
		335, 272, 215, 172, 137, // 5..9
		110, 87, 70, 56, 45, // 10..14
		36, 29, 23, 18, 15, // 15..19
	}
	if nice < -20 {
		nice = -20
	}
	if nice > 19 {
		nice = 19
	}
	return table[nice+20]
}

// Runnable reports whether the task is on a run queue (running or
// waiting to run).
func (t *Task) Runnable() bool { return t.State == Running || t.State == Runnable }

// Pinned reports whether the task is restricted to a single core.
func (t *Task) Pinned() bool { return t.Affinity.Count() == 1 }

// Speed returns the task's average speed (exec time / wall time) between
// two absolute times, given the exec-time reading at each. This is the
// paper's core metric.
func Speed(execDelta time.Duration, wallDelta time.Duration) float64 {
	if wallDelta <= 0 {
		return 0
	}
	return float64(execDelta) / float64(wallDelta)
}
