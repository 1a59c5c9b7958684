package sim

import (
	"math"
	"time"

	"repro/internal/eventq"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Core is one logical CPU of the machine. At most one task runs on a
// core at a time; the core's Scheduler decides which.
//
// The fields up to BusyTime are the ones the contention walk reads on
// every mate it settles and re-arms (see sharedWith); they come first so
// that a visit touches as few cache lines as possible.
type Core struct {
	cur *task.Task
	// smtGroup is the lowest core ID of this core's SMT sibling set,
	// equal exactly on cores that share a physical core.
	smtGroup int
	m        *Machine
	// sh is the state of the event-queue shard owning this core's events
	// (clock, window counters); shard is its index.
	sh    *shardState
	shard int
	// runStart is when the current task's un-accounted stint began.
	runStart int64
	// sliceEnd is when the current task's CFS timeslice expires.
	sliceEnd int64
	// baseSpeed, node and remotePenalty are the static speed factors
	// (CoreInfo.BaseSpeed, CoreInfo.Node, Topology.RemoteMemoryPenalty),
	// copied at New so effSpeed reads them from the core.
	baseSpeed     float64
	node          int
	remotePenalty float64
	// freq is the core's dynamic frequency factor (1.0 nominal). It
	// scales work retirement exactly like BaseSpeed but can change at
	// run time (perturbation layer); exec time still accrues at wall
	// rate, so a slow core looks fully "fast" to the speed metric —
	// the paper's §6.6 asymmetry, made time-varying.
	freq float64
	// stolen is the fraction of wall time currently stolen from the
	// running task by kernel-level activity (interrupt storms, kernel
	// threads). It scales both exec-time accrual and work retirement by
	// (1-stolen): the victim's measured speed t_exec/t_real drops — the
	// signal speed balancing reacts to — while the queue length a
	// load balancer watches is unchanged, exactly the §6.4 noise
	// asymmetry. Set by Machine.SetCoreStolen.
	stolen float64
	// mem is the core's memory-bandwidth domain, nil when no contention
	// model is configured.
	mem *memDomain
	// smt holds the other hardware contexts of this physical core. The
	// cores whose effective speed depends on this core's occupancy are
	// smt, then mem.cores outside this core's smtGroup.
	smt   []*Core
	sched Scheduler
	// stopEv is the core's reusable stop event. Re-arming moves it inside
	// the event queue; disarming removes it, so at most one stop event per
	// core is ever pending and stale stops cannot fire.
	stopEv *eventq.Event
	// needResched forces the next scheduleStop to fire immediately
	// (wakeup preemption, release of a running waiter).
	needResched bool
	// BusyTime and IdleTime accumulate the core's utilisation.
	BusyTime time.Duration

	id   int
	info *topo.CoreInfo
	// stintStart is when the current task last went on-CPU (unlike
	// runStart it survives intermediate accounting settlements); it
	// anchors the traced run-stint slice.
	stintStart int64
	inDispatch bool
	// visitYield is yieldWaiter bound once at New, so the queue walk of
	// onlyYieldWaitersQueued allocates no closure; allYield is its
	// result.
	visitYield func(t *task.Task) bool
	allYield   bool

	idle      bool
	idleSince int64
	lastRun   *task.Task

	// online reports whether the core participates in scheduling. An
	// offline core runs nothing and accrues neither busy nor idle time;
	// enqueueing on it is a bug (the machine panics). Toggled by
	// Machine.SetCoreOnline.
	online bool
	// stolenWall integrates the stolen fraction over wall time up to
	// stolenMark, busy or idle — the core's /proc/stat-style steal+irq
	// account, which user-level code may read. StolenWall() extends the
	// integral to the present.
	stolenWall time.Duration
	stolenMark int64

	idleTime time.Duration
	// StolenTime accumulates the wall time stolen from on-CPU tasks by
	// the kernel-noise model (a subset of BusyTime).
	StolenTime time.Duration
}

// clk returns the simulation clock governing this core: the machine
// clock, or the core's shard clock inside a parallel window.
func (c *Core) clk() int64 {
	if c.m.window {
		return c.sh.now
	}
	return c.m.now
}

// ID returns the core's logical CPU number.
func (c *Core) ID() int { return c.id }

// Info returns the core's static topology description.
func (c *Core) Info() *topo.CoreInfo { return c.info }

// Scheduler returns the core's scheduling policy.
func (c *Core) Scheduler() Scheduler { return c.sched }

// Current returns the task running right now, or nil if the core is
// idle.
func (c *Core) Current() *task.Task { return c.cur }

// StintStart returns when the current task went on-CPU: the start of
// the run stint the trace emits once the task leaves. It is meaningful
// only while Current is non-nil.
func (c *Core) StintStart() int64 { return c.stintStart }

// Idle reports whether the core has no task to run.
func (c *Core) Idle() bool { return c.cur == nil }

// Now returns the clock governing this core: the machine clock, or the
// core's shard clock inside a parallel window. Shard-confined code
// (core-routed timers, idle hooks) must read time through this instead
// of Machine.Now, which lags the shard clocks mid-window.
func (c *Core) Now() int64 { return c.clk() }

// Online reports whether the core participates in scheduling.
func (c *Core) Online() bool { return c.online }

// Freq returns the core's dynamic frequency factor (1.0 nominal).
func (c *Core) Freq() float64 { return c.freq }

// StolenWall returns the total wall time the kernel-noise model has
// stolen from the core since boot, whether or not a task was running —
// what /proc/stat's steal+irq columns report on a real machine. A
// user-level balancer may difference it across a sampling window to
// estimate how much CPU a newcomer would actually receive.
func (c *Core) StolenWall() time.Duration {
	return c.stolenWall + time.Duration(float64(c.clk()-c.stolenMark)*c.stolen)
}

// NrRunnable returns the run-queue length including the running task —
// the "load" of Linux-style balancing.
func (c *Core) NrRunnable() int { return c.sched.NrRunnable() }

// Queued returns the runnable tasks excluding the running one.
func (c *Core) Queued() []*task.Task { return c.sched.Queued() }

// IdleTime returns the accumulated idle time (settled as of the last
// idle→busy transition).
func (c *Core) IdleTime() time.Duration {
	if c.idle {
		return c.idleTime + time.Duration(c.clk()-c.idleSince)
	}
	return c.idleTime
}

// Sync settles in-progress accounting so task ExecTime values on this
// core are exact as of Machine.Now.
func (c *Core) Sync() { c.account() }

// memDomain is one memory-bandwidth domain of the contention model: its
// capacity, its cores in topology order, and memos of their demand and
// of the bandwidth factor that demand imposes. Padded so shard workers
// filling the memos of different domains never share a cache line.
type memDomain struct {
	capacity float64
	cores    []*Core
	// demand memoizes load while valid. Every change that can move it
	// is preceded by a settleShared on the changing core, which clears
	// valid; advanceCurrent clears it again after a program step.
	demand float64
	valid  bool
	// factor memoizes bandwidth for intensity factorOf at the memoized
	// demand while factorValid. load drops it whenever it recomputes
	// the demand.
	factorOf    float64
	factor      float64
	factorValid bool
	_           [64]byte
}

// load returns the memory-bandwidth demand on d: the MemIntensity of
// every task computing on one of its cores, summed in topology order.
// The sum is kept until the domain's demand next moves, so an occupancy
// change that settles and re-arms every domain mate sums the domain
// once, not once per mate. It is recomputed in the same order, never
// kept as a running total, so it rounds exactly as a fresh sum does.
func (d *memDomain) load() float64 {
	if !d.valid {
		sum := 0.0
		for _, o := range d.cores {
			// Only computing tasks stress the memory path: a thread
			// spinning at a barrier issues no memory traffic.
			if t := o.cur; t != nil && t.Cur.Kind == task.ExecCompute {
				sum += t.MemIntensity
			}
		}
		d.demand, d.valid = sum, true
		d.factorValid = false
	}
	return d.demand
}

// bandwidth returns the speed factor of a task of memory intensity mi
// on the saturated domain d: its memory-bound fraction slows to its
// fair share of the path. demand is d.load(). The factor is kept for
// the last intensity asked, so mates of equal intensity compute it once
// per demand.
func (d *memDomain) bandwidth(mi, demand float64) float64 {
	if !d.factorValid || d.factorOf != mi {
		d.factorOf, d.factor, d.factorValid = mi, 1-mi+mi*d.capacity/demand, true
	}
	return d.factor
}

// effSpeed returns the work retired per on-CPU nanosecond when t runs
// on this core now: base clock × dynamic frequency × NUMA-locality
// factor × SMT-contention factor × memory-bandwidth contention factor.
// Kernel-noise theft (c.stolen) is applied separately — it reduces the
// on-CPU time itself, not the retirement rate. t is always c.cur, so the
// demand on c's domain already counts it.
func (c *Core) effSpeed(t *task.Task) float64 {
	s := c.baseSpeed * c.freq
	if c.remotePenalty > 0 && t.HomeNode >= 0 && t.HomeNode != c.node {
		// The explicit conversion rounds the product, so no platform
		// may fuse it into the add.
		s /= 1 + float64(c.remotePenalty*t.MemIntensity)
	}
	for _, o := range c.smt {
		if o.cur != nil {
			s *= SMTContention
			break
		}
	}
	if d := c.mem; t.MemIntensity > 0 && t.Cur.Kind == task.ExecCompute && d != nil {
		if demand := d.load(); demand > d.capacity {
			s *= d.bandwidth(t.MemIntensity, demand)
		}
	}
	return s
}

// account settles the current task's in-progress stint: charges exec
// time, consumes migration warmup, retires work, burns spin budget and
// check budget. Safe to call at any time.
func (c *Core) account() {
	t := c.cur
	if t == nil {
		return
	}
	now := c.clk()
	if c.runStart >= now {
		return
	}
	elapsed := time.Duration(now - c.runStart)
	c.runStart = now
	// Kernel noise steals a fraction of the wall time: the task was
	// on-CPU (and made progress) only for avail of it. The core itself
	// stays busy for all of elapsed — it was running noise, not idling.
	avail := elapsed
	if c.stolen > 0 {
		avail = time.Duration(float64(elapsed) * (1 - c.stolen))
		c.StolenTime += elapsed - avail
	}
	t.ExecTime += avail
	t.LastRanAt = now
	c.BusyTime += elapsed
	c.sched.AccountExec(t, avail)

	rem := avail
	if t.WarmupLeft > 0 {
		w := t.WarmupLeft
		if w > rem {
			w = rem
		}
		t.WarmupLeft -= w
		rem -= w
	}
	switch t.Cur.Kind {
	case task.ExecCompute:
		retired := float64(rem) * c.effSpeed(t)
		if retired > t.Cur.WorkLeft {
			retired = t.Cur.WorkLeft
		}
		t.Cur.WorkLeft -= retired
		t.WorkDone += retired
	case task.ExecSpin:
		if t.Cur.SpinLeft >= 0 {
			t.Cur.SpinLeft -= avail
			if t.Cur.SpinLeft < 0 {
				t.Cur.SpinLeft = 0
			}
		}
	case task.ExecYieldWait, task.ExecPollWait:
		t.Cur.CheckLeft -= rem
		if t.Cur.CheckLeft < 0 {
			t.Cur.CheckLeft = 0
		}
	}
}

// dispatch fills an empty core with the scheduler's next choice, firing
// the new-idle hooks when there is none. Re-entrant calls (from idle
// hooks that enqueue) are absorbed by the outer loop.
func (c *Core) dispatch() {
	if c.inDispatch || !c.online {
		return
	}
	c.inDispatch = true
	defer func() { c.inDispatch = false }()
	for c.cur == nil {
		t := c.sched.PickNext()
		if t == nil {
			if !c.idle {
				c.idle = true
				c.idleSince = c.clk()
			}
			for _, fn := range c.m.idleFns {
				fn(c)
			}
			t = c.sched.PickNext()
			if t == nil {
				return
			}
		}
		c.begin(t)
	}
}

// begin starts running t. It only mutates core/task state and schedules
// the stop event; program advancement happens in event context (onStop).
func (c *Core) begin(t *task.Task) {
	now := c.clk()
	if c.idle {
		c.idleTime += time.Duration(now - c.idleSince)
		c.idle = false
	}
	c.m.settleShared(c)
	if t != c.lastRun {
		c.m.statsFor(c.id).ContextSwitches++
		c.lastRun = t
	}
	t.State = task.Running
	t.LastRanAt = now
	if t.FirstRanAt < 0 {
		t.FirstRanAt = now
	}
	if t.WakeArmed {
		// Close the wake-to-run window opened at the wakeup enqueue.
		t.WakeArmed = false
		if d := now - t.LastEnqueuedAt; d >= 0 {
			t.WakeLatSum += d
			t.WakeLatN++
			if d > t.WakeLatMax {
				t.WakeLatMax = d
			}
		}
	}
	c.cur = t
	c.runStart = now
	c.stintStart = now
	c.sliceEnd = now + int64(c.sched.Slice(t))
	c.needResched = false
	c.scheduleStop()
	c.m.rearmShared(c)
}

// requestStop forces the current task to re-enter onStop at the current
// simulated time (wakeup preemption, spin release).
func (c *Core) requestStop() {
	if c.cur == nil {
		return
	}
	c.needResched = true
	now := c.clk()
	c.armStop(now, now)
}

// refreshStop re-derives the stop event after queue conditions changed
// without a preemption (e.g. a task arrived but does not preempt, so a
// slice boundary now matters).
func (c *Core) refreshStop() {
	if c.cur == nil {
		return
	}
	c.account()
	c.scheduleStop()
}

// scheduleStop computes when the current task must next be looked at and
// arms the stop event. A stop time of "never" (spinning alone on a core)
// arms nothing; external events (enqueue, release) will intervene.
func (c *Core) scheduleStop() {
	t := c.cur
	now := c.clk()
	if c.needResched {
		c.armStop(now, now)
		return
	}
	const never = int64(math.MaxInt64)
	stop := never
	// The policy re-evaluates at every slice boundary even when the
	// task runs alone — DWRR's round accounting (and hence its
	// round-balancing steals) depends on slices expiring, as the timer
	// tick guarantees in a real kernel.
	sliceCap := true
	switch t.Cur.Kind {
	case task.ExecCompute:
		need := int64(t.WarmupLeft)
		if eff := c.effSpeed(t); t.Cur.WorkLeft > 0 {
			need += int64(math.Ceil(t.Cur.WorkLeft / eff))
		}
		stop = c.wallAfter(now, need)
	case task.ExecSpin:
		if t.Cur.Released {
			stop = now
		} else if t.Cur.SpinLeft >= 0 {
			stop = c.wallAfter(now, int64(t.Cur.SpinLeft)+int64(t.WarmupLeft))
		}
	case task.ExecYieldWait:
		if t.Cur.Released {
			stop = now
		} else if c.sched.NrRunnable() > 1 {
			stop = c.wallAfter(now, int64(t.Cur.CheckLeft)+int64(t.WarmupLeft))
		} else {
			// Uncontended yield-waiters spin lazily with no event; an
			// arriving competitor forces a resched (Machine.enqueue).
			sliceCap = false
		}
	case task.ExecPollWait:
		if t.Cur.Released {
			stop = now
		} else {
			stop = c.wallAfter(now, int64(t.Cur.CheckLeft)+int64(t.WarmupLeft))
		}
	case task.ExecSleep, task.ExecBlocked:
		// A completed sleep/block scheduled onto the CPU: finish the
		// action immediately.
		stop = now
	case task.ExecExited, task.ExecIdle:
		stop = now
	}
	if sliceCap && c.sliceEnd < stop {
		stop = c.sliceEnd
		if stop < now {
			stop = now
		}
	}
	if stop == never {
		c.m.events.Remove(c.stopEv) // disarm any previously armed stop
		return
	}
	c.armStop(now, stop)
}

// wallAfter converts need nanoseconds of on-CPU progress from now into
// the absolute wall time at which the progress completes, stretching
// for stolen time. A fully stolen core (stolen >= 1) never completes on
// its own — the slice cap keeps its event rate bounded and external
// events (noise ending) intervene.
func (c *Core) wallAfter(now, need int64) int64 {
	if c.stolen <= 0 {
		return now + need
	}
	if c.stolen >= 1 {
		return int64(math.MaxInt64)
	}
	return now + int64(math.Ceil(float64(need)/(1-c.stolen)))
}

// armStop (re)schedules the core's stop event at at, clamped to now (the
// core's clock), moving it if already pending.
func (c *Core) armStop(now, at int64) {
	if at < now {
		at = now
	}
	c.m.events.Schedule(c.stopEv, c.shard, at)
}

// onStop is the single place tasks make progress through their programs:
// it fires at slice ends, work completion, check boundaries, wait
// releases and preemption requests, decides what the stop means from
// task state, and either advances the program or rotates the queue.
func (c *Core) onStop() {
	c.account()
	c.needResched = false
	t := c.cur
	if t == nil {
		c.dispatch()
		return
	}
	switch t.Cur.Kind {
	case task.ExecCompute:
		// Within 1 ns of work at current speed counts as done (event
		// times are integer ns; see scheduleStop's Ceil).
		if t.WarmupLeft == 0 && t.Cur.WorkLeft < c.effSpeed(t) {
			c.advanceCurrent()
			return
		}
	case task.ExecSleep, task.ExecBlocked:
		c.advanceCurrent()
		return
	case task.ExecSpin:
		if t.Cur.Released {
			c.advanceCurrent()
			return
		}
		if t.Cur.Policy == task.WaitSpinThenBlock && t.Cur.SpinLeft == 0 {
			// KMP_BLOCKTIME exhausted: go to sleep until released.
			t.Cur.Kind = task.ExecBlocked
			c.m.block(t)
			return
		}
	case task.ExecYieldWait:
		if t.Cur.Released {
			c.advanceCurrent()
			return
		}
		if t.Cur.CheckLeft == 0 {
			// Condition still unmet: sched_yield and let others run.
			// When every co-runnable task is also an unreleased
			// yield-waiter, the ping-pong is symmetric (they all just
			// burn CPU): coarsen the check interval so the simulator
			// does not pay one event per microsecond of mutual
			// yielding. CPU accounting is unchanged — waiters still
			// charge their exec time — only the interleaving grain is.
			next := checkCost
			if c.onlyYieldWaitersQueued() {
				next = yieldGroupCheck
			}
			c.stopCurrent()
			c.sched.Yield(t)
			t.State = task.Runnable
			t.Cur.CheckLeft = next
			c.sched.PutPrev(t)
			c.dispatch()
			return
		}
	case task.ExecPollWait:
		if t.Cur.Released {
			c.advanceCurrent()
			return
		}
		if t.Cur.CheckLeft == 0 {
			// Condition still unmet: usleep before the next check,
			// backing off exponentially up to pollMax as usleep-based
			// barrier loops do.
			t.Cur.CheckLeft = checkCost
			backoff := t.Cur.PollBackoff
			if backoff == 0 {
				backoff = pollInterval
			} else if backoff < pollMax {
				backoff *= 2
				if backoff > pollMax {
					backoff = pollMax
				}
			}
			t.Cur.PollBackoff = backoff
			t.Cur.WakeAt = c.clk() + int64(backoff)
			c.m.sleepUntil(t, t.Cur.WakeAt)
			return
		}
	case task.ExecExited:
		c.m.exit(t)
		return
	}
	// Slice expiry or preemption: return the task to the queue and pick
	// again.
	if c.m.tracer != nil {
		c.m.Emit(trace.Event{Kind: trace.KindTimeslice, Core: c.id, Task: t.ID, TaskName: t.Name})
	}
	c.stopCurrent()
	t.State = task.Runnable
	c.sched.PutPrev(t)
	c.dispatch()
}

// onlyYieldWaitersQueued reports whether every queued task on this core
// is an unreleased yield-waiter (the symmetric ping-pong case).
func (c *Core) onlyYieldWaitersQueued() bool {
	c.allYield = true
	c.sched.EachQueued(c.visitYield)
	return c.allYield
}

// yieldWaiter is onlyYieldWaitersQueued's visitor: it stops the walk at
// the first queued task that is not an unreleased yield-waiter.
func (c *Core) yieldWaiter(o *task.Task) bool {
	if o.Cur.Kind != task.ExecYieldWait || o.Cur.Released {
		c.allYield = false
		return false
	}
	return true
}

// advanceCurrent moves the running task to its next program action.
func (c *Core) advanceCurrent() {
	t := c.cur
	// A memory-intensive task switching between computing and waiting
	// changes the demand on its memory domain even though core
	// occupancy is unchanged: settle the domain mates at the old
	// demand and re-arm them at the new one.
	memShift := t.MemIntensity > 0 && c.mem != nil
	if memShift {
		c.m.settleShared(c)
	}
	c.m.advance(t)
	if memShift {
		// The program step runs between the settle and the new action:
		// a barrier release inside it can dispatch a domain mate and
		// refill the demand memo while t still counts as computing.
		c.mem.valid = false
	}
	if c.cur == t {
		// Still running (new compute or on-CPU wait): restart timing.
		c.scheduleStop()
	}
	if memShift {
		c.m.rearmShared(c)
	}
}

// stopCurrent detaches the running task from the CPU. Accounting must be
// settled first. The task is left off-queue; the caller requeues,
// blocks or exits it. Dependent cores are settled and re-armed because
// the occupancy change alters their contention factors. The settle
// comes before the stint is traced: an exit or sleep reaches here with
// its new action already set, and the settle drops a demand memo that
// a barrier release earlier in the same program step refilled.
func (c *Core) stopCurrent() {
	c.m.settleShared(c)
	if c.m.tracer != nil && c.cur != nil {
		if d := c.clk() - c.stintStart; d > 0 {
			c.m.Emit(trace.Event{Kind: trace.KindRunStint, Core: c.id,
				Task: c.cur.ID, TaskName: c.cur.Name, Dur: d})
		}
	}
	c.cur = nil
	c.m.events.Remove(c.stopEv)
	c.needResched = false
	c.m.rearmShared(c)
}
