// Package cfs models the Linux Completely Fair Scheduler as the per-core
// scheduling policy (the first level of the two-level approach described
// in the paper's §2: per-core queues with fair scheduling in time).
//
// The model keeps the CFS mechanisms that matter to load balancing:
// virtual runtime ordered by nice weight, bounded timeslices, sleeper
// credit on wakeup, wakeup preemption, and sched_yield placing the
// yielder behind all other runnable tasks. It dispenses with the
// red-black tree (queues here are short; an ordered slice is simpler and
// deterministic).
//
// CFS is trivially shard-local: every Queue touches only its own core's
// tasks and never reads another queue, so under the sharded simulator
// (sim.Config.Shards) per-core CFS scheduling always runs inside
// parallel windows with no extra configuration. Cross-core movement is
// the balancers' business (packages linuxlb, ule, dwrr, speedbal).
package cfs

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
)

// The scheduler's tunables, fixed at the 2.6.28 kernel's
// /proc/sys/kernel/sched_* defaults.
const (
	// latency is the targeted scheduling period: every runnable task
	// should run once per latency (sched_latency_ns).
	latency = 20 * time.Millisecond
	// minGranularity is the floor on a task's slice
	// (sched_min_granularity_ns).
	minGranularity = 4 * time.Millisecond
	// wakeupGranularity is the vruntime lead a waking task needs to
	// preempt the running one (sched_wakeup_granularity_ns).
	wakeupGranularity = 5 * time.Millisecond
	// sleeperCredit bounds how much vruntime credit a waking sleeper
	// receives (GENTLE_FAIR_SLEEPERS halves sched_latency).
	sleeperCredit = 10 * time.Millisecond
)

const nice0Weight = 1024

// Queue is one core's CFS run queue. It implements sim.Scheduler.
type Queue struct {
	// queue holds runnable tasks not currently executing, ordered by
	// (vruntime, ID).
	queue []*task.Task
	cur   *task.Task
	// minVruntime is the monotonic per-queue clock new arrivals are
	// normalised against.
	minVruntime int64
	totalWeight int64
	// m and coreID identify the queue's machine and core for tracing;
	// m is nil for queues used standalone in tests.
	m      *sim.Machine
	coreID int
}

// New returns an empty CFS queue.
func New() *Queue { return &Queue{} }

// Factory returns a sim scheduler factory producing CFS queues — the
// standard substrate for experiments.
func Factory() func(coreID int) sim.Scheduler {
	return func(int) sim.Scheduler { return New() }
}

// Attach implements sim.Scheduler.
func (q *Queue) Attach(m *sim.Machine, coreID int) {
	q.m = m
	q.coreID = coreID
}

// Enqueue implements sim.Scheduler: inserts a runnable task, granting
// sleeper credit on wakeups, and reports whether it should preempt the
// running task.
func (q *Queue) Enqueue(t *task.Task, wakeup bool) bool {
	if t.Sched.OnQueue {
		panic(fmt.Sprintf("cfs: double enqueue of %q", t.Name))
	}
	if wakeup {
		// place_entity wakeup semantics: the sleeper resumes from its
		// absolute position when it slept, but never worse than
		// minVruntime − SleeperCredit — a long sleeper re-enters with
		// a bounded lead over the queue clock (GENTLE_FAIR_SLEEPERS).
		old := t.Sched.Vruntime + t.Sched.QueueClock
		if floor := q.minVruntime - int64(sleeperCredit); old < floor {
			old = floor
			if q.m != nil && q.m.Tracing() {
				q.m.Emit(trace.Event{Kind: trace.KindSleeperCredit, Core: q.coreID,
					Task: t.ID, TaskName: t.Name})
			}
		}
		t.Sched.Vruntime = old
	} else {
		// Migration/new-task: join relative to this queue's clock.
		t.Sched.Vruntime += q.minVruntime
	}
	q.insert(t)
	t.Sched.OnQueue = true
	q.totalWeight += t.Sched.Weight
	if q.cur != nil {
		// Preemption check: the newcomer must lead by more than the
		// wakeup granularity. The kernel runs check_preempt_curr for
		// migrations too (pull_task), not only wakeups — without it a
		// freshly migrated thread sits behind a barrier-spinner for
		// the rest of its slice.
		return q.cur.Sched.Vruntime-t.Sched.Vruntime > int64(wakeupGranularity)
	}
	return false
}

// Dequeue implements sim.Scheduler.
func (q *Queue) Dequeue(t *task.Task) {
	if t == q.cur {
		q.cur = nil
		q.totalWeight -= t.Sched.Weight
	} else if t.Sched.OnQueue {
		q.remove(t)
		q.totalWeight -= t.Sched.Weight
	} else {
		panic(fmt.Sprintf("cfs: dequeue of absent task %q", t.Name))
	}
	t.Sched.OnQueue = false
	// Leave the queue's clock: vruntime becomes queue-relative, and the
	// clock snapshot lets a same-queue wakeup restore the absolute
	// position.
	t.Sched.QueueClock = q.minVruntime
	t.Sched.Vruntime -= q.minVruntime
}

// PickNext implements sim.Scheduler: the leftmost (smallest vruntime)
// task.
func (q *Queue) PickNext() *task.Task {
	if q.cur != nil {
		panic("cfs: PickNext with current task still attached")
	}
	if len(q.queue) == 0 {
		return nil
	}
	t := q.queue[0]
	// Shift down instead of re-slicing: q.queue = q.queue[1:] would leak
	// the front capacity, so every insert after a few picks regrows the
	// backing array. The queues are short (a handful of tasks), so the
	// copy is cheaper than the allocation churn.
	copy(q.queue, q.queue[1:])
	q.queue[len(q.queue)-1] = nil
	q.queue = q.queue[:len(q.queue)-1]
	t.Sched.OnQueue = false
	q.cur = t
	q.updateMin()
	return t
}

// PutPrev implements sim.Scheduler: the preempted/expired task rejoins
// the queue.
func (q *Queue) PutPrev(t *task.Task) {
	if q.cur == t {
		q.cur = nil
	} else {
		// A task stopped via stopCurrent and requeued later (yield
		// path); weight already counted only if it was current.
		q.totalWeight += t.Sched.Weight
	}
	q.insert(t)
	t.Sched.OnQueue = true
	q.updateMin()
}

// AccountExec implements sim.Scheduler: vruntime advances inversely to
// weight.
func (q *Queue) AccountExec(t *task.Task, d time.Duration) {
	t.Sched.Vruntime += int64(d) * nice0Weight / t.Sched.Weight
	q.updateMin()
}

// Slice implements sim.Scheduler: the task's share of the latency
// period, floored by the minimum granularity.
func (q *Queue) Slice(t *task.Task) time.Duration {
	tw := q.totalWeight
	if tw <= 0 {
		tw = t.Sched.Weight
	}
	s := time.Duration(int64(latency) * t.Sched.Weight / tw)
	if s < minGranularity {
		s = minGranularity
	}
	return s
}

// Yield implements sim.Scheduler: sched_yield moves the caller behind
// every other runnable task (CFS sets its vruntime to the rightmost).
func (q *Queue) Yield(t *task.Task) {
	max := t.Sched.Vruntime
	for _, o := range q.queue {
		if o.Sched.Vruntime > max {
			max = o.Sched.Vruntime
		}
	}
	if max > t.Sched.Vruntime {
		t.Sched.Vruntime = max
	}
	t.Sched.Vruntime++ // strictly behind ties
}

// NrRunnable implements sim.Scheduler.
func (q *Queue) NrRunnable() int {
	n := len(q.queue)
	if q.cur != nil {
		n++
	}
	return n
}

// WeightedLoad implements sim.Scheduler.
func (q *Queue) WeightedLoad() int64 { return q.totalWeight }

// Queued implements sim.Scheduler.
func (q *Queue) Queued() []*task.Task {
	out := make([]*task.Task, len(q.queue))
	copy(out, q.queue)
	return out
}

// EachQueued implements sim.Scheduler: visits queued tasks in (vruntime,
// ID) order without copying the queue.
func (q *Queue) EachQueued(fn func(t *task.Task) bool) {
	for _, t := range q.queue {
		if !fn(t) {
			return
		}
	}
}

// MinVruntime exposes the queue clock for tests.
func (q *Queue) MinVruntime() int64 { return q.minVruntime }

func (q *Queue) insert(t *task.Task) {
	i := sort.Search(len(q.queue), func(i int) bool {
		o := q.queue[i]
		if o.Sched.Vruntime != t.Sched.Vruntime {
			return o.Sched.Vruntime > t.Sched.Vruntime
		}
		return o.ID > t.ID
	})
	q.queue = append(q.queue, nil)
	copy(q.queue[i+1:], q.queue[i:])
	q.queue[i] = t
}

func (q *Queue) remove(t *task.Task) {
	for i, o := range q.queue {
		if o == t {
			q.queue = append(q.queue[:i], q.queue[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("cfs: task %q not in queue", t.Name))
}

// updateMin advances the queue clock to min(cur, leftmost), never
// backwards.
func (q *Queue) updateMin() {
	m := int64(-1)
	if q.cur != nil {
		m = q.cur.Sched.Vruntime
	}
	if len(q.queue) > 0 {
		if lv := q.queue[0].Sched.Vruntime; m < 0 || lv < m {
			m = lv
		}
	}
	if m > q.minVruntime {
		q.minVruntime = m
	}
}
