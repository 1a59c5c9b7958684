// Package dwrr models Distributed Weighted Round-Robin multiprocessor
// fair scheduling (Li et al. [15]), the strongest kernel-level baseline
// the paper compares against (§2).
//
// DWRR schedules in rounds: each task may consume one round slice
// (100 ms in the 2.6.22-based implementation the paper used, weighted by
// priority) per round, after which it moves to the core's expired queue.
// Each core has a round number; global fairness is enforced by keeping
// all busy cores' round numbers within one of each other. A core whose
// active queue empties first performs round balancing: it steals a
// not-yet-expired task from another core in the lowest round, and only
// advances its own round (swapping active and expired) when no such task
// exists. As the paper notes, the mechanism is application-unaware,
// balances every task in the system uniformly, and can migrate a large
// number of threads; it maintains no migration history.
package dwrr

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// roundSlice is the per-round CPU quantum per task (100 ms in the
// 2.6.22 DWRR, 30 ms in 2.6.24; the paper used the former).
const roundSlice = 100 * time.Millisecond

// Global coordinates the per-core queues: round numbers and stealing.
type Global struct {
	m      *sim.Machine
	queues []*Queue
}

// NewFactory returns a scheduler factory and the shared coordinator.
func NewFactory() (func(coreID int) sim.Scheduler, *Global) {
	g := &Global{}
	return func(coreID int) sim.Scheduler {
		q := &Queue{g: g, core: coreID}
		g.queues = append(g.queues, q)
		return q
	}, g
}

// MaxRoundSpread returns the largest difference between busy cores'
// round numbers — the DWRR invariant bounds it by 1.
func (g *Global) MaxRoundSpread() int {
	min, max, any := 0, 0, false
	for _, q := range g.queues {
		if q.NrRunnable() == 0 {
			continue
		}
		if !any {
			min, max, any = q.round, q.round, true
			continue
		}
		if q.round < min {
			min = q.round
		}
		if q.round > max {
			max = q.round
		}
	}
	return max - min
}

// Queue is one core's DWRR run queue (active + expired), implementing
// sim.Scheduler.
type Queue struct {
	g    *Global
	core int

	active  []*task.Task
	expired []*task.Task
	cur     *task.Task
	round   int
	// roundServed accumulates weighted CPU time charged since the round
	// began. Rounds normally close when active empties, but under open
	// arrivals active may never empty — each newcomer joins the current
	// round with a fresh slice, so a task expired early in the round can
	// be stranded behind an unbounded stream of arrivals (the observed
	// ρ≥0.85 p99 collapse). Once roundServed exceeds the round's
	// entitlement while expired tasks wait, the round is force-advanced.
	roundServed time.Duration
}

// Round returns the core's current round number.
func (q *Queue) Round() int { return q.round }

// Attach implements sim.Scheduler.
func (q *Queue) Attach(m *sim.Machine, coreID int) { q.g.m = m }

// Enqueue implements sim.Scheduler. Waking and new tasks join the
// current round's active queue; no wakeup preemption (round-robin).
func (q *Queue) Enqueue(t *task.Task, wakeup bool) bool {
	if t.Sched.OnQueue {
		panic(fmt.Sprintf("dwrr: double enqueue of %q", t.Name))
	}
	if t.Sched.Round < q.round {
		// The task's recorded round is behind the queue's: it slept (or
		// arrived) across a round boundary, so whatever it consumed was
		// consumed in a round that has already closed. Without this reset
		// a task that dozed off just short of its slice woke into the new
		// round pre-expired — charged twice for the same CPU time.
		t.Sched.RoundUsed = 0
	}
	t.Sched.Round = q.round
	if t.Sched.RoundUsed >= roundSlice {
		// Already exhausted this round elsewhere: expired.
		t.Sched.Round = q.round + 1
		q.expired = append(q.expired, t)
	} else {
		q.active = append(q.active, t)
	}
	t.Sched.OnQueue = true
	return false
}

// Dequeue implements sim.Scheduler.
func (q *Queue) Dequeue(t *task.Task) {
	switch {
	case t == q.cur:
		q.cur = nil
	case remove(&q.active, t):
	case remove(&q.expired, t):
	default:
		panic(fmt.Sprintf("dwrr: dequeue of absent task %q", t.Name))
	}
	t.Sched.OnQueue = false
}

// PickNext implements sim.Scheduler: head of active; when active is
// empty, round-balance by stealing, else advance the round.
func (q *Queue) PickNext() *task.Task {
	if q.cur != nil {
		panic("dwrr: PickNext with current attached")
	}
	for {
		if len(q.active) > 0 && len(q.expired) > 0 && q.roundServed >= q.roundBudget() {
			// The core has served a full round's entitlement yet active is
			// still populated — tasks keep arriving into the open round, so
			// the empty-active advance below would never run: close the
			// round by force so the expired tasks are not stranded. They go
			// ahead of the carried-over active tasks — they have waited the
			// longest and their new-round slice is already reset. A closed
			// system never gets here: its round serves exactly the
			// entitlement, emptying active at the same moment, and takes
			// the steal-then-advance path instead.
			q.round++
			q.roundServed = 0
			if q.g.m.Tracing() {
				q.g.m.Emit(trace.Event{Kind: trace.KindRoundAdvance, Core: q.core, N: q.round})
			}
			q.active = append(q.expired, q.active...)
			q.expired = nil
		}
		if len(q.active) > 0 {
			t := q.active[0]
			// Shift down rather than re-slice so the backing array's front
			// capacity is not leaked (appends would otherwise regrow it).
			copy(q.active, q.active[1:])
			q.active[len(q.active)-1] = nil
			q.active = q.active[:len(q.active)-1]
			t.Sched.OnQueue = false
			q.cur = t
			return t
		}
		if q.stealRound() {
			continue
		}
		if len(q.expired) == 0 {
			return nil
		}
		// Advance the round: expired tasks become the new active set.
		q.round++
		q.roundServed = 0
		if q.g.m.Tracing() {
			q.g.m.Emit(trace.Event{Kind: trace.KindRoundAdvance, Core: q.core, N: q.round})
		}
		q.active, q.expired = q.expired, q.active[:0]
	}
}

// stealRound implements DWRR round balancing: take one unexpired task
// from another core that is still in a round ≤ ours. Returns whether a
// task was stolen into the active queue.
func (q *Queue) stealRound() bool {
	var victim *Queue
	var pick *task.Task
	for _, o := range q.g.queues {
		if o == q || o.round > q.round {
			continue
		}
		if !q.g.m.Cores[o.core].Online() {
			// Hot-unplugged queues are drained empty; skipping keeps the
			// scan honest if one is mid-drain.
			continue
		}
		for _, t := range o.active {
			if !t.Affinity.Has(q.core) {
				continue
			}
			if victim == nil || o.round < victim.round || (o.round == victim.round && len(o.active) > len(victim.active)) {
				victim, pick = o, t
			}
			break
		}
	}
	if pick == nil {
		return false
	}
	remove(&victim.active, pick)
	pick.Sched.OnQueue = false
	q.g.m.NoteMigration(pick, q.core, "dwrr")
	pick.Sched.Round = q.round
	q.active = append(q.active, pick)
	pick.Sched.OnQueue = true
	return true
}

// PutPrev implements sim.Scheduler: an expired task waits for the next
// round; otherwise it rejoins the active tail.
func (q *Queue) PutPrev(t *task.Task) {
	if q.cur == t {
		q.cur = nil
	}
	if t.Sched.RoundUsed >= roundSlice {
		t.Sched.RoundUsed = 0
		t.Sched.Round = q.round + 1
		q.expired = append(q.expired, t)
	} else {
		q.active = append(q.active, t)
	}
	t.Sched.OnQueue = true
}

// AccountExec implements sim.Scheduler: consume round slice, weighted by
// priority (a nice −5 task's round slice is proportionally larger).
func (q *Queue) AccountExec(t *task.Task, d time.Duration) {
	w := t.Sched.Weight
	if w <= 0 {
		w = 1024
	}
	charge := time.Duration(int64(d) * 1024 / w)
	t.Sched.RoundUsed += charge
	q.roundServed += charge
}

// roundBudget is the weighted time the current round is entitled to
// serve: one round slice per runnable task. It is evaluated against the
// live queue length, so the entitlement grows as tasks arrive — a round
// may run long, but never unboundedly long while expired tasks wait.
func (q *Queue) roundBudget() time.Duration {
	return roundSlice * time.Duration(q.NrRunnable())
}

// Slice implements sim.Scheduler: run until the round slice is consumed.
func (q *Queue) Slice(t *task.Task) time.Duration {
	left := roundSlice - t.Sched.RoundUsed
	if left < time.Millisecond {
		left = time.Millisecond
	}
	return left
}

// Yield implements sim.Scheduler: move behind the other active tasks
// (handled by PutPrev appending to the tail).
func (q *Queue) Yield(t *task.Task) {}

// NrRunnable implements sim.Scheduler.
func (q *Queue) NrRunnable() int {
	n := len(q.active) + len(q.expired)
	if q.cur != nil {
		n++
	}
	return n
}

// WeightedLoad implements sim.Scheduler.
func (q *Queue) WeightedLoad() int64 {
	var w int64
	for _, t := range q.active {
		w += t.Sched.Weight
	}
	for _, t := range q.expired {
		w += t.Sched.Weight
	}
	if q.cur != nil {
		w += q.cur.Sched.Weight
	}
	return w
}

// Queued implements sim.Scheduler.
func (q *Queue) Queued() []*task.Task {
	out := make([]*task.Task, 0, len(q.active)+len(q.expired))
	out = append(out, q.active...)
	out = append(out, q.expired...)
	return out
}

// EachQueued implements sim.Scheduler: active tasks first, then expired,
// matching Queued's order.
func (q *Queue) EachQueued(fn func(t *task.Task) bool) {
	for _, t := range q.active {
		if !fn(t) {
			return
		}
	}
	for _, t := range q.expired {
		if !fn(t) {
			return
		}
	}
}

func remove(s *[]*task.Task, t *task.Task) bool {
	for i, o := range *s {
		if o == t {
			*s = append((*s)[:i], (*s)[i+1:]...)
			return true
		}
	}
	return false
}
