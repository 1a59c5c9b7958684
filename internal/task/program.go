package task

import "time"

// Program supplies a task's behaviour as a sequence of actions. The
// machine calls Next each time the previous action completes; programs
// are written as small state machines (see package spmd for the SPMD
// compute/barrier loop).
type Program interface {
	// Next returns the task's next action. now is the simulation time in
	// nanoseconds. Returning Exit ends the task.
	Next(t *Task, now int64) Action
}

// ActionKind says what an Action does. The zero kind is ActExit, so the
// zero Action ends the task.
type ActionKind uint8

// The action kinds, one per constructor below.
const (
	ActExit ActionKind = iota
	ActCompute
	ActSleep
	ActWait
)

// Action is one step of a task's program: a plain value, so programs
// hand it back without allocating. Kind selects which of the other
// fields apply; build actions with Compute, Sleep, WaitFor and Exit.
type Action struct {
	Kind      ActionKind
	Work      float64
	D         time.Duration
	C         Cond
	Policy    WaitPolicy
	Blocktime time.Duration
}

// Compute retires work units of work (one unit = 1 ns on a speed-1.0
// core).
func Compute(work float64) Action { return Action{Kind: ActCompute, Work: work} }

// Sleep takes the task off the run queue for d (nanosleep/usleep
// semantics).
func Sleep(d time.Duration) Action { return Action{Kind: ActSleep, D: d} }

// WaitFor waits until the condition c is satisfied, using wait policy p.
// For WaitSpinThenBlock, blocktime is the spin budget before blocking
// (the OpenMP KMP_BLOCKTIME).
func WaitFor(c Cond, p WaitPolicy, blocktime time.Duration) Action {
	return Action{Kind: ActWait, C: c, Policy: p, Blocktime: blocktime}
}

// Exit ends the task.
func Exit() Action { return Action{} }

// WaitPolicy is how a task waits for a condition. The choice is the
// load-balancer-visible difference between synchronization
// implementations that the paper studies in §3 and §6: yielding tasks
// stay on the run queue and count as load; sleeping tasks leave it.
type WaitPolicy int

const (
	// WaitSpin polls continuously, burning CPU (OpenMP with
	// KMP_BLOCKTIME=infinite; "INF" in the paper's figures).
	WaitSpin WaitPolicy = iota
	// WaitYield polls and calls sched_yield between checks (the default
	// UPC and MPI barrier implementations). The task stays runnable.
	WaitYield
	// WaitPollSleep polls and calls usleep between checks (the paper's
	// modified UPC runtime, "LOAD-SLEEP"). The task briefly leaves the
	// run queue on every sleep.
	WaitPollSleep
	// WaitBlock blocks immediately until released.
	WaitBlock
	// WaitSpinThenBlock spins for a budget (KMP_BLOCKTIME, default
	// 200 ms — "DEF" in the paper's figures), then blocks.
	WaitSpinThenBlock
)

// String returns the conventional name of the policy.
func (p WaitPolicy) String() string {
	switch p {
	case WaitSpin:
		return "spin"
	case WaitYield:
		return "yield"
	case WaitPollSleep:
		return "poll-sleep"
	case WaitBlock:
		return "block"
	case WaitSpinThenBlock:
		return "spin-then-block"
	}
	return "invalid"
}

// Cond is a condition a task can wait for (a barrier, a lock, ...).
// Implementations live outside this package (see spmd.Barrier).
type Cond interface {
	// Arrive registers the task's arrival at the condition. It returns
	// true if the condition is satisfied immediately (e.g. last thread
	// at a barrier), in which case the task proceeds without waiting.
	// If false, the task waits; the condition must later call
	// w.Release(t) exactly once for each waiting task.
	Arrive(t *Task, w Waker) bool
}

// Waker is implemented by the machine; conditions use it to wake or
// un-wait tasks when they become satisfied.
type Waker interface {
	// Release marks the condition satisfied for t: a blocked task is
	// woken, a spinning/yielding/polling task completes its wait at its
	// next check.
	Release(t *Task)
	// Now returns the current simulation time in nanoseconds.
	Now() int64
}

// Seq is a Program that runs a fixed slice of actions once, then exits.
// Tasks running the same steps may share one Actions slice; each Seq
// keeps its own cursor.
type Seq struct {
	Actions []Action
	next    int
}

// Next implements Program.
func (s *Seq) Next(t *Task, now int64) Action {
	if s.next >= len(s.Actions) {
		return Exit()
	}
	a := s.Actions[s.next]
	s.next++
	return a
}

// Loop is a Program that repeats a fixed body of actions for a given
// number of iterations (forever if Iterations <= 0), then exits. An
// empty body exits at once. Like Seq, loops may share one Body slice.
type Loop struct {
	Body       []Action
	Iterations int

	iter, next int
}

// Next implements Program.
func (l *Loop) Next(t *Task, now int64) Action {
	if l.next == len(l.Body) {
		l.iter++
		l.next = 0
	}
	if len(l.Body) == 0 || (l.Iterations > 0 && l.iter >= l.Iterations) {
		return Exit()
	}
	a := l.Body[l.next]
	l.next++
	return a
}

// ComputeForever is a Program that computes without end — the "cpu-hog"
// competing task from the paper's §6.3.
type ComputeForever struct {
	// Chunk is the work granularity per action; any positive value
	// works, larger chunks mean fewer simulator events.
	Chunk float64
}

// Next implements Program.
func (c *ComputeForever) Next(t *Task, now int64) Action {
	chunk := c.Chunk
	if chunk <= 0 {
		chunk = 1e9 // 1 simulated second
	}
	return Compute(chunk)
}
