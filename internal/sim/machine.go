// Package sim implements the discrete-event multicore machine simulator
// that substitutes for the paper's hardware testbeds (see DESIGN.md §2).
//
// A Machine has one Core per logical CPU of its topology. Each core runs
// at most one task at a time under a pluggable per-core Scheduler; a
// central event queue advances simulated time. Tasks execute Programs
// (compute, sleep, wait-for-condition, exit); the machine performs all
// time accounting — notably each task's cumulative CPU time, the
// numerator of the paper's speed metric.
//
// Determinism: given the same topology, tasks, actors and seed, a run
// produces bit-identical results. All randomness flows from the machine's
// seeded RNG; events at equal times fire in scheduling order.
package sim

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/cpuset"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Actor is anything that schedules its own activity on the machine —
// load balancers, workload generators. Start is called once before the
// event loop begins.
type Actor interface {
	Start(m *Machine)
}

// Placer decides which core a newly started task is placed on. The
// default picks the least-loaded allowed core with accurate information;
// the Linux balancer installs a placer that uses per-tick-stale load
// snapshots (reproducing the fork-placement clumping discussed in the
// paper's §2 footnote 1).
type Placer interface {
	Place(m *Machine, t *task.Task) int
}

// Stats aggregates machine-wide counters for a run.
type Stats struct {
	// Migrations counts cross-core task moves, keyed by the label the
	// mover passed to Migrate ("linuxlb", "speedbal", "dwrr", ...).
	Migrations map[string]int
	// ContextSwitches counts dispatches of a different task than the
	// one previously running on the core.
	ContextSwitches int
	// Wakeups counts sleep/block → runnable transitions.
	Wakeups int
	// Events counts processed simulator events (a cost/health metric).
	Events int
}

// TotalMigrations sums migrations across movers.
func (s *Stats) TotalMigrations() int {
	n := 0
	for _, v := range s.Migrations {
		n += v
	}
	return n
}

// Fixed substrate parameters. Every run of the paper's evaluation uses
// the same machine model, so these are constants rather than settings.
const (
	// SMTContention is the speed multiplier applied to a core whose SMT
	// sibling context is busy (the paper's §6 observation that a task
	// sharing a physical core runs slower).
	SMTContention = 0.65
	// pollInterval is the initial sleep length between checks of a
	// WaitPollSleep waiter (the usleep(1) call in the paper's modified
	// UPC runtime, 50 µs of effective sleep). Unsuccessful checks back
	// off exponentially to pollMax.
	pollInterval = 50 * time.Microsecond
	pollMax      = 2 * time.Millisecond
	// checkCost is the CPU cost of one condition check in yield/poll
	// waits.
	checkCost = time.Microsecond
	// yieldGroupCheck is the coarsened check interval used when every
	// runnable task on a core is an unreleased yield-waiter — the
	// interleaving grain of a symmetric sched_yield ping-pong (the
	// waiters burn CPU either way).
	yieldGroupCheck = time.Millisecond
	// windowMin is the minimum sync-horizon span worth parallelising;
	// shorter windows run sequentially to amortize goroutine
	// coordination.
	windowMin = 20 * time.Microsecond
)

// Config carries machine construction options.
type Config struct {
	// Seed feeds the machine RNG; actors split their own streams off
	// it.
	Seed uint64
	// NewScheduler builds the per-core scheduling policy. Required.
	NewScheduler func(coreID int) Scheduler
	// Tracer receives scheduling events (migrations, balancer decisions,
	// barrier crossings, run stints). Nil disables tracing; emission
	// sites skip event construction entirely on the nil path.
	Tracer trace.Tracer
	// Metrics receives run counters and distributions. Nil disables
	// metric collection.
	Metrics *metrics.Registry
	// Shards partitions the machine into per-socket event-queue shards:
	// core-bound events (stop events, task sleep timers, core timers)
	// live on their core's shard queue, everything else on the global
	// control queue. The partition never changes simulation results —
	// events still fire in the exact (time, scheduling-order) sequence of
	// a single queue — it only enables the parallel fast path below.
	// Values are clamped to the socket count; 0 or 1 means one shard.
	Shards int
	// ShardParallel lets Run advance shards on parallel goroutines
	// between global events (conservative-lookahead windows), when the
	// run is provably shard-isolated: no tracer, no metrics, every live
	// task confined (by affinity) to one shard. By setting it the caller
	// additionally asserts that registered hooks and task programs are
	// shard-confined — they touch only the firing task's shard, never
	// call Stop/NewTask/RNG mid-run, and synchronize (barriers,
	// releases) only within a shard. The simulator panics on the
	// violations it can detect. Results are byte-identical with the flag
	// on or off; only wall-clock time changes.
	ShardParallel bool
}

// shardState is the mutable per-shard context of the event loop: the
// shard's clock and the counter deltas its worker accumulates during a
// parallel window, folded into the machine totals in shard order when the
// window closes. Padded so concurrent workers never share a cache line.
type shardState struct {
	// now is the shard-local clock. Outside a parallel window it is
	// meaningless (the machine clock rules); inside one it tracks the
	// shard's own event stream and never crosses the window horizon.
	now   int64
	stats Stats
	live  int // delta: tasks exited in this shard during the window
	// sleepFree holds the shard's idle sleep timers. A timer serves one
	// timed sleep on a core of this shard and returns here when it
	// fires, so only this shard's worker touches the list inside a
	// window.
	sleepFree []*sleepTimer
	_         [64]byte
}

// sleepTimer is a reusable wake event for one timed sleep at a time.
type sleepTimer struct {
	ev *eventq.Event
	t  *task.Task // the sleeper, nil while the timer is free
}

// Machine is the simulated multicore system.
type Machine struct {
	Topo  *topo.Topology
	Cores []*Core
	Stats Stats

	events *eventq.Sharded
	now    int64
	rng    *xrand.RNG
	// tasks holds the live tasks in creation order. A task that exits
	// stays until the next compaction; exited counts those, so an exit
	// costs amortized O(1) and nothing grows with the number of tasks
	// ever created.
	tasks     []*task.Task
	exited    int
	actors    []Actor
	placer    Placer
	idleFns   []func(c *Core)
	doneFns   []func(t *task.Task)
	startFns  []func(t *task.Task)
	moveFns   []func(t *task.Task, from, to int)
	onlineFns []func(c *Core, online bool)
	nOnline   int
	running   bool
	stopped   bool
	nextTask  int
	live      int
	tracer    trace.Tracer
	metrics   *metrics.Registry
	traceSeq  uint64

	// Shard layout (fixed at New): socket-aligned so every SMT pair and
	// memory domain lives inside one shard, keeping contention models
	// shard-local. shardOf maps core → shard; shardCores is the inverse.
	nShards     int
	shardOf     []int32
	shardCores  []cpuset.Set
	shardStates []shardState
	// memDomains is the contention state of Topo.MemDomains, same order.
	memDomains []memDomain
	// shardClosed records whether SMT siblings and memory domains are
	// contained in single shards — a precondition of parallel windows
	// (always true for socket-aligned partitions of sane topologies).
	shardClosed bool
	// shardParallel is Config.ShardParallel: whether Run may open
	// parallel windows at all.
	shardParallel bool
	// window is true while shard workers drain their queues in parallel.
	// Written only between windows; in-window code reads it to pick the
	// shard clock over the machine clock.
	window bool
	// windows and windowEvents count parallel windows opened and the
	// events they processed — observability for tests and benchmarks (a
	// sharded run that never opens a window is a silent perf bug).
	windows      int
	windowEvents int
	// windowsBlocked permanently disables parallel windows: set via
	// BlockWindows by users whose callbacks have machine-global effects
	// the isolation preconditions cannot see (e.g. a stop-on-completion
	// hook).
	windowsBlocked bool
	// groupShard is tryWindow's scratch map for the app-containment
	// check, kept across calls to avoid a per-horizon allocation.
	groupShard map[string]int32
	// drained is SetCoreOnline's list of the tasks an unplug re-places,
	// kept across calls; drain, bound at the first unplug, appends one
	// to it.
	drained []*task.Task
	drain   func(t *task.Task) bool
}

// New builds a machine over the topology. The scheduler factory in cfg is
// mandatory.
func New(tp *topo.Topology, cfg Config) *Machine {
	if cfg.NewScheduler == nil {
		panic("sim: Config.NewScheduler is required")
	}
	if err := tp.Validate(); err != nil {
		panic(fmt.Sprintf("sim: invalid topology: %v", err))
	}
	m := &Machine{
		Topo:          tp,
		rng:           xrand.New(cfg.Seed),
		tracer:        cfg.Tracer,
		metrics:       cfg.Metrics,
		shardParallel: cfg.ShardParallel,
	}
	m.Stats.Migrations = make(map[string]int)
	m.partition(cfg.Shards)
	m.events = eventq.NewSharded(m.nShards)
	m.memDomains = make([]memDomain, len(tp.MemDomains))
	for i, d := range tp.MemDomains {
		m.memDomains[i].capacity = d.Capacity
	}
	// One backing array keeps the cores in ID order in memory, the order
	// the contention walk visits a domain's cores.
	cores := make([]Core, len(tp.Cores))
	for i := range tp.Cores {
		info := &tp.Cores[i]
		c := &cores[i]
		*c = Core{id: i, info: info, m: m,
			online: true, freq: 1,
			shard:     int(m.shardOf[i]),
			smtGroup:  info.SMTSiblings.First(),
			baseSpeed: info.BaseSpeed, node: info.Node,
			remotePenalty: tp.RemoteMemoryPenalty}
		for _, sid := range info.SMTSiblings.Cores() {
			if sid != i {
				c.smt = append(c.smt, &cores[sid])
			}
		}
		if d := tp.MemDomainOf(i); d >= 0 {
			c.mem = &m.memDomains[d]
			c.mem.cores = append(c.mem.cores, c)
		}
		c.sh = &m.shardStates[c.shard]
		c.sched = cfg.NewScheduler(i)
		c.sched.Attach(m, i)
		// The stop event is the single hottest timer: it is re-armed on
		// every dispatch, slice boundary and wait check, so each core owns
		// one reusable event and reschedules it in place.
		c.stopEv = eventq.NewEvent(func(now int64) { c.onStop() })
		c.visitYield = c.yieldWaiter
		m.Cores = append(m.Cores, c)
	}
	m.nOnline = len(m.Cores)
	m.placer = leastLoadedPlacer{}
	return m
}

// partition computes the socket-aligned shard layout: sockets are dealt
// to shards in balanced contiguous runs, and every core inherits its
// socket's shard. Sharding never alters results — it only decides which
// sub-queue holds a core's events — so a shard count is clamped to
// [1, sockets].
func (m *Machine) partition(want int) {
	tp := m.Topo
	// Sockets in first-appearance order (== ascending on sane machines).
	var sockets []int
	sockOf := make(map[int]int) // socket id → dense index
	for i := range tp.Cores {
		s := tp.Cores[i].Socket
		if _, ok := sockOf[s]; !ok {
			sockOf[s] = len(sockets)
			sockets = append(sockets, s)
		}
	}
	n := want
	if n > len(sockets) {
		n = len(sockets)
	}
	if n < 1 {
		n = 1
	}
	m.nShards = n
	m.shardOf = make([]int32, len(tp.Cores))
	m.shardCores = make([]cpuset.Set, n)
	m.shardStates = make([]shardState, n+1) // +1: slot for the control queue
	for i := range tp.Cores {
		sh := int32(sockOf[tp.Cores[i].Socket] * n / len(sockets))
		m.shardOf[i] = sh
		m.shardCores[sh] = m.shardCores[sh].Add(i)
	}
	// Closure check for parallel windows: contention couplings (SMT
	// siblings, memory domains) must not straddle shards, or concurrent
	// workers would read each other's occupancy.
	m.shardClosed = true
	for i := range tp.Cores {
		contained := false
		for _, s := range m.shardCores {
			if s.Contains(tp.Cores[i].SMTSiblings) {
				contained = true
				break
			}
		}
		if !contained {
			m.shardClosed = false
			return
		}
	}
	for _, d := range tp.MemDomains {
		contained := false
		for _, s := range m.shardCores {
			if s.Contains(d.Cores) {
				contained = true
				break
			}
		}
		if !contained {
			m.shardClosed = false
			return
		}
	}
}

// ShardOf returns the shard owning the core's events.
func (m *Machine) ShardOf(core int) int { return int(m.shardOf[core]) }

// clock returns the simulation clock governing the given core: the
// machine clock, or the core's shard clock inside a parallel window.
func (m *Machine) clock(core int) int64 {
	if m.window {
		return m.shardStates[m.shardOf[core]].now
	}
	return m.now
}

// statsFor returns the Stats sink for events on the given core: the
// machine totals, or the shard's delta block inside a parallel window
// (folded into the totals, in shard order, when the window closes).
func (m *Machine) statsFor(core int) *Stats {
	if m.window {
		return &m.shardStates[m.shardOf[core]].stats
	}
	return &m.Stats
}

// Now returns the current simulation time in nanoseconds. It implements
// part of task.Waker.
func (m *Machine) Now() int64 { return m.now }

// Tracing implements trace.Emitter: instrumentation sites that build
// expensive events should check it first.
func (m *Machine) Tracing() bool { return m.tracer != nil }

// Emit implements trace.Emitter: it stamps the event with the current
// simulated time and the machine-wide emission sequence number, then
// hands it to the configured tracer. No-op without a tracer.
func (m *Machine) Emit(e trace.Event) {
	if m.tracer == nil {
		return
	}
	e.Time = m.now
	e.Seq = m.traceSeq
	m.traceSeq++
	m.tracer.Emit(e)
}

// Metrics implements metrics.Source; nil means metrics are off and
// instrumentation sites must skip recording.
func (m *Machine) Metrics() *metrics.Registry { return m.metrics }

// RNG returns a generator split off the machine stream; each caller gets
// an independent stream so actors do not perturb one another. Splitting
// mutates the machine stream, so it must happen at setup or from global
// events — never inside a parallel shard window.
func (m *Machine) RNG() *xrand.RNG {
	if m.window {
		panic("sim: RNG split inside a parallel shard window")
	}
	return m.rng.Split()
}

// Live returns the tasks created and not yet exited, in creation order:
// len(Live()) == LiveTasks(). The machine forgets a task when it exits;
// code that reads exited tasks after a run keeps its own list (see
// TaskLog). The slice belongs to the machine and stays valid until the
// next event fires or task starts. Live must not be called inside a
// parallel shard window.
func (m *Machine) Live() []*task.Task {
	if m.window {
		panic("sim: Live inside a parallel shard window")
	}
	m.dropExited()
	return m.tasks
}

// dropExited removes exited tasks from the live list, keeping creation
// order, and clears the vacated tail so the tasks can be collected.
func (m *Machine) dropExited() {
	if m.exited == 0 {
		return
	}
	n := 0
	for _, t := range m.tasks {
		if t.State != task.Done {
			m.tasks[n] = t
			n++
		}
	}
	clear(m.tasks[n:])
	m.tasks = m.tasks[:n]
	m.exited = 0
}

// trimExited compacts the live list once at least half of it has
// exited, so each compaction walks at most twice the exits it removes.
func (m *Machine) trimExited() {
	if 2*m.exited >= len(m.tasks) {
		m.dropExited()
	}
}

// TaskLog lists every task a machine starts after the log is attached,
// in creation order. The machine itself keeps only live tasks, so
// checks and reports that read the accounting of exited tasks after a
// run (fingerprints, invariant suites, occupancy charts) attach a log
// before the tasks start.
type TaskLog struct {
	Tasks []*task.Task
}

// LogTasks attaches a TaskLog to m through OnTaskStart.
func LogTasks(m *Machine) *TaskLog {
	l := &TaskLog{}
	m.OnTaskStart(func(t *task.Task) {
		// Tasks usually start in creation order; insert from the end.
		i := len(l.Tasks)
		l.Tasks = append(l.Tasks, t)
		for ; i > 0 && l.Tasks[i-1].ID > t.ID; i-- {
			l.Tasks[i] = l.Tasks[i-1]
		}
		l.Tasks[i] = t
	})
	return l
}

// Timer is a reusable scheduled callback, the one way code outside the
// engine schedules work: the event and its closure are allocated once
// by NewTimer, and Schedule moves it inside the event queue without
// allocating. Periodic actors (balancer wakes, scheduler ticks)
// reschedule one timer forever; a source of one-shot callbacks that
// may overlap either keeps a free list of idle timers (storm ends,
// replugs) or schedules a fresh timer once (MakeJ's respawns).
type Timer struct {
	m     *Machine
	ev    *eventq.Event
	shard int
}

// NewTimer creates an unscheduled reusable timer on the global control
// queue: its callback may touch any core, and every firing is a
// synchronization horizon for parallel windows.
func (m *Machine) NewTimer(fn func(now int64)) *Timer {
	return &Timer{m: m, ev: eventq.NewEvent(fn), shard: m.events.Global()}
}

// NewCoreTimer creates an unscheduled reusable timer bound to the core's
// shard queue. The callback must confine itself to that core's shard
// (its run queue, its tasks, its SMT and memory-domain mates); in
// exchange the timer does not bound conservative lookahead. The ticks
// of a Linux balancer whose domain lies inside one shard belong here.
func (m *Machine) NewCoreTimer(core int, fn func(now int64)) *Timer {
	return &Timer{m: m, ev: eventq.NewEvent(fn), shard: int(m.shardOf[core])}
}

// now returns the clock governing the timer's shard.
func (t *Timer) now() int64 {
	if t.m.window {
		return t.m.shardStates[t.shard].now
	}
	return t.m.now
}

// Schedule (re)schedules the timer at absolute time at (clamped to now).
// If the timer is already pending it is moved, not duplicated.
func (t *Timer) Schedule(at int64) {
	if now := t.now(); at < now {
		at = now
	}
	t.m.events.Schedule(t.ev, t.shard, at)
}

// ScheduleAfter schedules the timer d from now.
func (t *Timer) ScheduleAfter(d time.Duration) { t.Schedule(t.now() + int64(d)) }

// Stop cancels the timer if pending.
func (t *Timer) Stop() { t.m.events.Remove(t.ev) }

// Pending reports whether the timer is scheduled.
func (t *Timer) Pending() bool { return t.ev.Queued() }

// OnCoreChange registers a hook invoked whenever a task's core
// assignment changes: on first placement (from = -1) and on every
// migration. Balancers that maintain per-core membership lists (package
// speedbal) keep them current through this hook instead of rescanning
// all tasks.
func (m *Machine) OnCoreChange(fn func(t *task.Task, from, to int)) {
	m.moveFns = append(m.moveFns, fn)
}

// OnOnlineChange registers a hook invoked after a core goes offline or
// comes back online (SetCoreOnline). On unplug it fires after the
// core's tasks have been drained to online cores; balancers use it to
// invalidate per-core state (speed samples, tick timers) for cores that
// no longer run anything.
func (m *Machine) OnOnlineChange(fn func(c *Core, online bool)) {
	m.onlineFns = append(m.onlineFns, fn)
}

// OnlineCores returns the number of cores currently online.
func (m *Machine) OnlineCores() int { return m.nOnline }

// SetCoreOnline hot-unplugs (online=false) or replugs (online=true) a
// core, modelling CPU hotplug. Unplugging drains the core's running and
// queued tasks to online cores — breaking single-core affinity the way
// the kernel's select_fallback_rq does when a task's last allowed CPU
// vanishes — and the drained moves are charged as ordinary migrations
// labelled "hotplug". Sleeping and blocked tasks whose last core is
// offline are redirected when they wake. Unplugging the last online
// core panics. No-op when the core is already in the requested state.
func (m *Machine) SetCoreOnline(core int, online bool) {
	if m.window {
		// Hotplug re-places tasks across the whole machine; it can only
		// run from a global event, never from inside a window.
		panic("sim: SetCoreOnline inside a parallel shard window")
	}
	c := m.Cores[core]
	if c.online == online {
		return
	}
	if online {
		c.online = true
		m.nOnline++
		if m.tracer != nil {
			m.Emit(trace.Event{Kind: trace.KindCoreOnline, Core: core})
		}
		if m.metrics != nil {
			m.metrics.Counter("hotplug.online").Inc()
		}
		for _, fn := range m.onlineFns {
			fn(c, true)
		}
		// The replugged core is empty: run the new-idle hooks so
		// balancers can pull work onto it immediately.
		c.dispatch()
		return
	}
	if m.nOnline == 1 {
		panic(fmt.Sprintf("sim: cannot unplug core %d: it is the last online core", core))
	}
	// Settle and detach everything the core holds, then mark it offline
	// and re-place the orphans. An offline core accrues neither busy nor
	// idle time.
	if m.drain == nil {
		m.drain = func(t *task.Task) bool {
			m.drained = append(m.drained, t)
			return true
		}
	}
	m.drained = m.drained[:0]
	if t := c.cur; t != nil {
		c.account()
		c.stopCurrent()
		c.sched.Dequeue(t)
		t.State = task.Runnable
		m.drained = append(m.drained, t)
	}
	queued := len(m.drained)
	c.sched.EachQueued(m.drain)
	moved := m.drained
	for _, t := range moved[queued:] {
		c.sched.Dequeue(t)
	}
	if c.idle {
		c.idleTime += time.Duration(m.now - c.idleSince)
		c.idle = false
	}
	c.online = false
	m.nOnline--
	m.events.Remove(c.stopEv)
	if m.tracer != nil {
		m.Emit(trace.Event{Kind: trace.KindCoreOffline, Core: core, N: len(moved)})
	}
	if m.metrics != nil {
		m.metrics.Counter("hotplug.offline").Inc()
		if len(moved) > 0 {
			m.metrics.Counter("hotplug.drained").Add(int64(len(moved)))
		}
	}
	for _, t := range moved {
		dst := m.fallbackCore(t)
		m.NoteMigration(t, dst, "hotplug")
		m.enqueue(t, dst, false)
	}
	// Drop the references so the buffer keeps no exited task alive.
	clear(moved)
	for _, fn := range m.onlineFns {
		fn(c, false)
	}
}

// fallbackCore picks the least-loaded online core allowed by the task's
// affinity (ties to the lowest ID). When the affinity holds no online
// core — a pinned task whose core was unplugged — the mask is widened
// to all cores, mirroring the kernel's select_fallback_rq.
func (m *Machine) fallbackCore(t *task.Task) int {
	best, bestLoad := -1, 0
	for _, c := range m.Cores {
		if !c.online || !t.Affinity.Has(c.id) {
			continue
		}
		l := c.sched.NrRunnable()
		if best == -1 || l < bestLoad {
			best, bestLoad = c.id, l
		}
	}
	if best >= 0 {
		return best
	}
	t.Affinity = m.Topo.AllCores()
	for _, c := range m.Cores {
		if !c.online {
			continue
		}
		l := c.sched.NrRunnable()
		if best == -1 || l < bestLoad {
			best, bestLoad = c.id, l
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("sim: no online core for task %q", t.Name))
	}
	return best
}

// SetCoreFreq sets the core's dynamic frequency factor (1.0 nominal,
// must be positive). In-progress accounting is settled at the old
// frequency and the core's stop event re-derived at the new one.
func (m *Machine) SetCoreFreq(core int, f float64) {
	if f <= 0 {
		panic(fmt.Sprintf("sim: core %d frequency factor %v not positive", core, f))
	}
	c := m.Cores[core]
	if c.freq == f {
		return
	}
	c.account()
	c.freq = f
	if c.cur != nil {
		c.scheduleStop()
	}
}

// SetCoreStolen sets the fraction of wall time kernel-level activity
// steals from whatever runs on the core, in [0, 1]. 1 freezes the core
// (an interrupt storm): tasks stay resident but make no progress until
// the fraction drops. In-progress accounting is settled at the old
// fraction and the core's stop event re-derived at the new one.
func (m *Machine) SetCoreStolen(core int, s float64) {
	if s < 0 || s > 1 {
		panic(fmt.Sprintf("sim: core %d stolen fraction %v outside [0,1]", core, s))
	}
	c := m.Cores[core]
	if c.stolen == s {
		return
	}
	c.account()
	// Fold the closing segment into the wall-clock steal integral
	// (StolenWall) before the fraction changes.
	now := m.clock(core)
	c.stolenWall += time.Duration(float64(now-c.stolenMark) * c.stolen)
	c.stolenMark = now
	c.stolen = s
	if c.cur != nil {
		c.scheduleStop()
	}
}

// LiveTasks returns the number of tasks created and not yet exited. A
// machine with zero live tasks has drained its workload: no running
// program remains to spawn more.
func (m *Machine) LiveTasks() int { return m.live }

// Windows reports how many parallel shard windows the run has opened;
// WindowEvents reports how many events those windows processed. Both are
// zero for sequential runs — a sharded-parallel run that stays at zero
// means the isolation preconditions never held.
func (m *Machine) Windows() int { return m.windows }

// WindowEvents reports the events processed inside parallel windows.
func (m *Machine) WindowEvents() int { return m.windowEvents }

// BlockWindows permanently disables parallel lookahead windows on this
// machine. Callers must invoke it when they register a callback with
// machine-global effects that tryWindow's isolation preconditions
// cannot detect — the canonical case is a stop-on-completion hook
// (Stop inside a window would truncate other shards' already-fired
// events, so such a run can only be executed sequentially). The sharded
// event queue and its deterministic merge stay active; only the
// parallel drain is withheld.
func (m *Machine) BlockWindows() { m.windowsBlocked = true }

// PendingEvents returns the number of scheduled events — a liveness
// metric: after a run drains, self-rescheduling actors are the only
// thing keeping it non-zero.
func (m *Machine) PendingEvents() int { return m.events.Len() }

// AddActor registers an actor; its Start runs when the event loop begins
// (or immediately if the loop is already running).
func (m *Machine) AddActor(a Actor) {
	m.actors = append(m.actors, a)
	if m.running {
		a.Start(m)
	}
}

// SetPlacer installs the fork-placement policy.
func (m *Machine) SetPlacer(p Placer) { m.placer = p }

// GetPlacer returns the installed fork-placement policy, so a policy
// layered on top (the speed balancer's predictive placement of its
// managed group) can delegate everything else to whatever was there.
func (m *Machine) GetPlacer() Placer { return m.placer }

// OnIdle registers a hook invoked when a core runs out of runnable tasks
// (the Linux new-idle balancing entry point). The hook may enqueue a task
// on the core; dispatch re-runs afterwards.
func (m *Machine) OnIdle(fn func(c *Core)) { m.idleFns = append(m.idleFns, fn) }

// OnTaskDone registers a hook invoked when any task exits.
func (m *Machine) OnTaskDone(fn func(t *task.Task)) { m.doneFns = append(m.doneFns, fn) }

// OnTaskStart registers a hook invoked when any task is admitted
// (Start/StartOn), symmetric to OnTaskDone. The hook fires after the
// task is placed (State Runnable, CoreID set) but before its first
// action is fetched. Admission is a machine-global operation — it
// happens at setup or from global (control-queue) events, never inside
// a parallel shard window — so balancers may use the hook to learn
// about mid-run arrivals: a wake loop that drained because every
// managed thread had exited can re-arm its timers here instead of
// missing every later arrival (the closed-batch bookkeeping bug the
// open-system workloads flushed out).
func (m *Machine) OnTaskStart(fn func(t *task.Task)) { m.startFns = append(m.startFns, fn) }

// NewTask creates a task with the given program, default nice and full
// affinity, but does not start it.
func (m *Machine) NewTask(name string, prog task.Program) *task.Task {
	if m.window {
		// Task creation appends to machine-wide structures and placement
		// scans every core; it belongs to setup or global events.
		panic("sim: NewTask inside a parallel shard window")
	}
	t := &task.Task{
		ID:         m.nextTask,
		Name:       name,
		Prog:       prog,
		Affinity:   m.Topo.AllCores(),
		HomeNode:   -1,
		CoreID:     -1,
		FirstRanAt: -1,
	}
	t.Sched.Weight = task.NiceWeight(0)
	m.nextTask++
	m.live++
	m.tasks = append(m.tasks, t)
	return t
}

// Start places a new task using the machine placer and makes it runnable.
func (m *Machine) Start(t *task.Task) {
	m.StartOn(t, m.placer.Place(m, t))
}

// StartOn places a new task on the given core and makes it runnable. The
// core must be in the task's affinity.
func (m *Machine) StartOn(t *task.Task, core int) {
	if t.State != task.New {
		panic(fmt.Sprintf("sim: Start of task %q in state %v", t.Name, t.State))
	}
	if !t.Affinity.Has(core) {
		panic(fmt.Sprintf("sim: task %q placed on core %d outside affinity %v", t.Name, core, t.Affinity))
	}
	if !m.Cores[core].online {
		panic(fmt.Sprintf("sim: task %q placed on offline core %d", t.Name, core))
	}
	if t.Sched.Weight == 0 {
		t.Sched.Weight = task.NiceWeight(t.Nice)
	}
	t.StartedAt = m.now
	t.State = task.Runnable
	t.CoreID = core
	if t.HomeNode < 0 {
		// First-touch NUMA placement: pages land on the node of the
		// core the task starts on.
		t.HomeNode = m.Topo.Cores[core].Node
	}
	if m.tracer != nil {
		m.Emit(trace.Event{Kind: trace.KindForkPlace, Core: core, Task: t.ID, TaskName: t.Name, Dst: core})
	}
	for _, fn := range m.moveFns {
		fn(t, -1, core)
	}
	for _, fn := range m.startFns {
		fn(t)
	}
	m.advance(t) // fetch the first action
	if t.State == task.Runnable {
		m.enqueue(t, core, false)
	}
}

// Release implements task.Waker: the condition t was waiting for is now
// satisfied. A blocked task wakes; a spinning/yielding/polling task
// completes its wait at its next check (immediately — same simulated
// time — if it is running right now).
func (m *Machine) Release(t *task.Task) {
	t.Cur.Released = true
	switch t.State {
	case task.Blocked:
		m.wake(t)
	case task.Running:
		// Serviced in event context to keep state transitions
		// non-reentrant; the event fires at the current time.
		m.Cores[t.CoreID].requestStop()
	case task.Runnable, task.Sleeping:
		// Completes at next dispatch / timer wake.
	}
}

// wake moves a sleeping or blocked task back onto its core's run queue.
func (m *Machine) wake(t *task.Task) {
	if t.State != task.Sleeping && t.State != task.Blocked {
		return
	}
	m.statsFor(t.CoreID).Wakeups++
	t.State = task.Runnable
	core := t.CoreID
	if !m.Cores[core].online {
		// The task's core was unplugged while it slept: redirect the
		// wake to an online core (the kernel's select_task_rq fallback),
		// charged as a hotplug migration.
		core = m.fallbackCore(t)
		m.NoteMigration(t, core, "hotplug")
	}
	m.enqueue(t, core, true)
}

// enqueue puts a runnable task on a core's queue and handles preemption.
// Scheduler implementations maintain t.Sched.OnQueue.
func (m *Machine) enqueue(t *task.Task, core int, wakeup bool) {
	c := m.Cores[core]
	if !c.online {
		// Balancers must never move work to an offline core; wake and
		// drain paths redirect before reaching here.
		panic(fmt.Sprintf("sim: enqueue of task %q on offline core %d", t.Name, core))
	}
	t.CoreID = core
	t.LastEnqueuedAt = m.clock(core)
	if wakeup {
		// Arm the wake-to-run latency measurement: the core's next
		// dispatch of this task closes the window against LastEnqueuedAt.
		// A migration before that dispatch re-stamps LastEnqueuedAt, so
		// the measured latency is from the task's last queue entry — the
		// queue whose dispatch actually serviced the wake.
		t.WakeArmed = true
	}
	preempt := c.sched.Enqueue(t, wakeup)
	if c.cur == nil {
		c.dispatch()
		return
	}
	// A yield-waiting current task would voluntarily yield within
	// microseconds of a competitor arriving; fold that into "now".
	if preempt || c.cur.Cur.Kind == task.ExecYieldWait {
		if m.tracer != nil {
			reason := "wakeup-preempt"
			if !preempt {
				reason = "competitor-arrived"
			}
			m.Emit(trace.Event{Kind: trace.KindPreempt, Core: core,
				Task: c.cur.ID, TaskName: c.cur.Name, Reason: reason})
		}
		c.requestStop()
		return
	}
	// No preemption: the current task keeps running, but it is now
	// contended, so make sure a slice-end event exists.
	c.refreshStop()
}

// Migrate moves a runnable (not running) task to the destination core,
// charging the cache-warmup cost. label identifies the mover for the
// migration statistics. Balancers are expected to have checked affinity
// semantics themselves: Linux respects the mask, speedbalancer rewrites
// it. It panics if the task is running; use MigrateNow for
// sched_setaffinity semantics that move a running task.
func (m *Machine) Migrate(t *task.Task, dst int, label string) {
	if t.State == task.Running {
		panic(fmt.Sprintf("sim: migrating running task %q", t.Name))
	}
	src := t.CoreID
	if src == dst {
		return
	}
	if t.Sched.OnQueue {
		m.Cores[src].sched.Dequeue(t)
	}
	m.NoteMigration(t, dst, label)
	if t.Runnable() {
		t.State = task.Runnable
		m.enqueue(t, dst, false)
	}
	// Sleeping/blocked tasks just wake on the new core later.
}

// MigrateNow moves a task to the destination core even if it is
// currently running, modelling sched_setaffinity: "forces a task to be
// moved immediately to another core, without allowing the task to finish
// the run time remaining in its quantum" (§5.2). This is how
// speedbalancer migrates and how the Linux active-balance migration
// thread pushes.
func (m *Machine) MigrateNow(t *task.Task, dst int, label string) {
	if t.State != task.Running {
		m.Migrate(t, dst, label)
		return
	}
	src := t.CoreID
	if src == dst {
		return
	}
	c := m.Cores[src]
	c.account()
	c.stopCurrent()
	c.sched.Dequeue(t)
	m.NoteMigration(t, dst, label)
	t.State = task.Runnable
	m.enqueue(t, dst, false)
	c.dispatch()
}

// NoteMigration records a cross-core move of a task that the caller has
// already detached from its source queue (or that is off-queue): it
// charges the cache-warmup cost and updates counters and the task's core
// assignment. Queue insertion at the destination is the caller's job —
// schedulers that steal internally (DWRR round balancing) insert into
// their own structures.
func (m *Machine) NoteMigration(t *task.Task, dst int, label string) {
	src := t.CoreID
	if src == dst {
		return
	}
	if m.window && m.shardOf[src] != m.shardOf[dst] {
		// Cross-shard moves mutate two shards at once; only global
		// events (balancer ticks, hotplug) may perform them.
		panic(fmt.Sprintf("sim: cross-shard migration of task %q inside a parallel shard window", t.Name))
	}
	t.WarmupLeft += m.Topo.MigrationCost(t.RSS, src, dst)
	t.Migrations++
	t.LastMigratedAt = m.clock(dst)
	st := m.statsFor(dst)
	if st.Migrations == nil {
		st.Migrations = make(map[string]int)
	}
	st.Migrations[label]++
	if m.tracer != nil {
		m.Emit(trace.Event{Kind: trace.KindMigration, Core: dst,
			Task: t.ID, TaskName: t.Name, Src: src, Dst: dst, Label: label})
	}
	if m.metrics != nil {
		m.metrics.Counter("migrations." + label).Inc()
	}
	t.CoreID = dst
	for _, fn := range m.moveFns {
		fn(t, src, dst)
	}
}

// advance drives the task's program forward until it yields an action
// that takes time. It may be called re-entrantly (a barrier release
// advancing waiters on other cores).
func (m *Machine) advance(t *task.Task) {
	for {
		now := m.clock(t.CoreID)
		var a task.Action // the zero Action exits
		if t.Prog != nil {
			a = t.Prog.Next(t, now)
		}
		switch a.Kind {
		case task.ActCompute:
			t.Cur = task.Exec{Kind: task.ExecCompute, WorkLeft: a.Work}
			return
		case task.ActSleep:
			t.Cur = task.Exec{Kind: task.ExecSleep, WakeAt: now + int64(a.D)}
			m.sleepUntil(t, t.Cur.WakeAt)
			return
		case task.ActWait:
			if a.C.Arrive(t, m) {
				continue // condition already satisfied; next action
			}
			switch a.Policy {
			case task.WaitSpin:
				t.Cur = task.Exec{Kind: task.ExecSpin, Cond: a.C, Policy: a.Policy, SpinLeft: -1}
			case task.WaitSpinThenBlock:
				bt := a.Blocktime
				if bt <= 0 {
					bt = 200 * time.Millisecond // KMP_BLOCKTIME default
				}
				t.Cur = task.Exec{Kind: task.ExecSpin, Cond: a.C, Policy: a.Policy, SpinLeft: bt}
			case task.WaitYield:
				t.Cur = task.Exec{Kind: task.ExecYieldWait, Cond: a.C, Policy: a.Policy, CheckLeft: checkCost}
			case task.WaitPollSleep:
				t.Cur = task.Exec{Kind: task.ExecPollWait, Cond: a.C, Policy: a.Policy, CheckLeft: checkCost}
			case task.WaitBlock:
				t.Cur = task.Exec{Kind: task.ExecBlocked, Cond: a.C, Policy: a.Policy}
				m.block(t)
				return
			default:
				panic("sim: unknown wait policy")
			}
			if t.Cur.Released {
				// Released during Arrive (cannot happen for barriers,
				// but a permissive condition could); keep going.
				continue
			}
			return
		case task.ActExit:
			m.exit(t)
			return
		default:
			panic(fmt.Sprintf("sim: unknown action kind %d", a.Kind))
		}
	}
}

// sleepUntil takes a runnable/running task off its queue for a timed
// sleep. The caller has already set t.Cur. The wake event comes from
// the free timers of the shard the task sleeps on and goes back there
// when it fires: nothing but its timer wakes a timed sleeper, so a task
// holds at most one timer, only while it sleeps, and the steady-state
// path allocates nothing.
func (m *Machine) sleepUntil(t *task.Task, wakeAt int64) {
	m.offQueue(t, task.Sleeping)
	if now := m.clock(t.CoreID); wakeAt < now {
		wakeAt = now
	}
	shard := m.shardOf[t.CoreID]
	sh := &m.shardStates[shard]
	var st *sleepTimer
	if n := len(sh.sleepFree); n > 0 {
		st = sh.sleepFree[n-1]
		sh.sleepFree = sh.sleepFree[:n-1]
	} else {
		st = m.newSleepTimer(sh)
	}
	st.t = t
	// The wake timer lives on the shard of the core the task sleeps on:
	// the task will wake exactly there (or be redirected by a global
	// event — a cross-shard migration or hotplug — which closes any
	// window first).
	m.events.Schedule(st.ev, int(shard), wakeAt)
}

// newSleepTimer allocates a wake event that returns itself to sh's free
// timers before it wakes its sleeper.
func (m *Machine) newSleepTimer(sh *shardState) *sleepTimer {
	st := &sleepTimer{}
	st.ev = eventq.NewEvent(func(now int64) {
		t := st.t
		st.t = nil
		sh.sleepFree = append(sh.sleepFree, st)
		if t.State == task.Sleeping {
			m.wake(t)
		}
	})
	return st
}

// block takes a task off its queue until a Release.
func (m *Machine) block(t *task.Task) {
	m.offQueue(t, task.Blocked)
}

// exit ends the task.
func (m *Machine) exit(t *task.Task) {
	t.Cur = task.Exec{Kind: task.ExecExited}
	m.offQueue(t, task.Done)
	t.FinishedAt = m.clock(t.CoreID)
	if m.window {
		// The live list is machine-wide: the window's fold counts the
		// exit, and the task is dropped after the window closes.
		m.shardStates[m.shardOf[t.CoreID]].live++
	} else {
		m.live--
		m.exited++
	}
	for _, fn := range m.doneFns {
		fn(t)
	}
	if !m.window {
		m.trimExited()
	}
}

// offQueue removes a task from its core's queue (handling the case where
// it is the currently running task) and sets the new state. Accounting
// for a running task must already be settled by the caller.
func (m *Machine) offQueue(t *task.Task, st task.State) {
	c := m.Cores[t.CoreID]
	wasCur := c.cur == t
	if wasCur {
		c.stopCurrent()
	}
	if wasCur || t.Sched.OnQueue {
		// The policy tracks the running task internally; Dequeue
		// detaches it in either position.
		c.sched.Dequeue(t)
	}
	t.State = st
	if wasCur {
		c.dispatch()
	}
}

// sharedWith visits every other core whose effective speed depends on
// this core's occupancy: its SMT siblings, then its memory domain's
// cores outside its own SMT group, in topology order. topo.Validate
// makes SMT sibling sets a partition, so equal smtGroup means exactly
// "a sibling or c itself".
func (m *Machine) sharedWith(c *Core, fn func(o *Core)) {
	for _, o := range c.smt {
		fn(o)
	}
	if d := c.mem; d != nil {
		for _, o := range d.cores {
			if o.smtGroup != c.smtGroup {
				fn(o)
			}
		}
	}
}

// settleShared settles accounting on the dependent cores before this
// core's occupancy changes, so their in-progress stints are charged at
// the contention level that actually held. It then drops the domain's
// demand memo: every change that can move a domain's demand is preceded
// by a settle on the changing core, and the first read after it sums
// the domain afresh.
func (m *Machine) settleShared(c *Core) {
	m.sharedWith(c, func(o *Core) { o.account() })
	if c.mem != nil {
		c.mem.valid = false
	}
}

// rearmShared recomputes the dependent cores' stop events after this
// core's occupancy changed: their tasks now retire work at a different
// rate, so previously armed completion times are wrong.
func (m *Machine) rearmShared(c *Core) {
	m.sharedWith(c, func(o *Core) {
		if o.cur != nil {
			o.scheduleStop()
		}
	})
}

// Sync settles in-progress accounting on every core so task ExecTime
// values are exact as of Now. Balancers call this before sampling speeds.
// Machine-wide settlement can only run from a global event; a
// shard-confined balancer settles its own cores with Core.Sync instead.
func (m *Machine) Sync() {
	if m.window {
		panic("sim: machine-wide Sync inside a parallel shard window; use Core.Sync")
	}
	for _, c := range m.Cores {
		c.account()
	}
}

// Stop ends the run after the current event. It is a machine-wide
// control action and must not be called from inside a parallel shard
// window — a mid-window stop would depend on shard interleaving.
func (m *Machine) Stop() {
	if m.window {
		panic("sim: Stop inside a parallel shard window")
	}
	m.stopped = true
}

// Run processes events until the given absolute time (inclusive), the
// event queue empties, or Stop is called. It returns the time reached.
//
// With ShardParallel set (and the isolation preconditions holding) the
// loop alternates between global events, processed one at a time in
// strict (time, scheduling-order) sequence, and parallel windows: spans
// with no global event, during which every shard's worker drains its own
// queue on its own goroutine. Results are identical either way; see
// tryWindow for the argument.
func (m *Machine) Run(until int64) int64 {
	if !m.running {
		m.running = true
		for _, a := range m.actors {
			a.Start(m)
		}
	}
	parallel := m.shardParallel && m.nShards > 1 && m.shardClosed
	for !m.stopped {
		if parallel && m.tryWindow(until) {
			continue
		}
		e := m.events.PopUntil(until)
		if e == nil {
			break
		}
		if e.At > m.now {
			m.now = e.At
		}
		m.Stats.Events++
		e.Fire(e.At)
	}
	if m.now < until && !m.stopped {
		m.now = until
	}
	return m.now
}

// tryWindow opens a parallel window up to the next global event (or the
// run limit) if the span is worth it and the run is shard-isolated right
// now. It reports whether a window ran.
//
// Why results cannot differ from the sequential order: shard events
// never interact across shards — their callbacks touch only their own
// shard's cores and tasks (affinity containment checked below; SMT and
// memory-domain closure checked at New; the remaining obligations are
// asserted by the ShardParallel contract and enforced by panics and the
// race detector). Two events on different shards therefore commute, and
// any interleaving — including the fully-parallel one — produces the
// same state at the horizon as the sequential (time, seq) order. Within
// a shard the worker preserves the exact sequential order. Tracing and
// metrics are off (checked below), so no observer can see the
// cross-shard interleaving either.
func (m *Machine) tryWindow(until int64) bool {
	if m.tracer != nil || m.metrics != nil || m.windowsBlocked {
		return false
	}
	horizon := until + 1
	if g := m.events.PeekGlobal(); g != nil && g.At < horizon {
		horizon = g.At
	}
	if horizon-m.now < int64(windowMin) {
		return false
	}
	// Parallelism pays only when at least two shards have work before
	// the horizon.
	active := 0
	for s := 0; s < m.nShards; s++ {
		if h := m.events.ShardPeek(s); h != nil && h.At < horizon {
			active++
		}
	}
	if active < 2 {
		return false
	}
	// Isolation: every live task must be confined by affinity to the
	// shard it currently sits on, or a wake/enqueue could cross shards.
	// Grouped tasks (one application) must additionally share a shard:
	// task-exit hooks mutate per-app state (spmd.App completion counts)
	// from whichever shard worker retires the task, so an app split
	// across shards would race even though each task is contained.
	if m.groupShard == nil {
		m.groupShard = make(map[string]int32, 16)
	}
	clear(m.groupShard)
	for _, t := range m.tasks {
		switch t.State {
		case task.New, task.Done:
			continue
		}
		sh := m.shardOf[t.CoreID]
		if !m.shardCores[sh].Contains(t.Affinity) {
			return false
		}
		if t.Group != "" {
			if prev, ok := m.groupShard[t.Group]; ok && prev != sh {
				return false
			}
			m.groupShard[t.Group] = sh
		}
	}
	m.runWindow(horizon)
	return true
}

// runWindow drains every shard queue up to (strictly before) horizon,
// one goroutine per shard with pending work, then folds the per-shard
// clocks and counter deltas back into the machine, in shard order.
func (m *Machine) runWindow(horizon int64) {
	for s := range m.shardStates {
		m.shardStates[s].now = m.now
	}
	m.events.BeginWindow()
	m.window = true
	var wg sync.WaitGroup
	for s := 1; s < m.nShards; s++ {
		if h := m.events.ShardPeek(s); h == nil || h.At >= horizon {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			m.drainShard(s, horizon)
		}(s)
	}
	m.drainShard(0, horizon)
	wg.Wait()
	m.window = false
	m.events.EndWindow()
	m.windows++
	for s := 0; s < m.nShards; s++ {
		sh := &m.shardStates[s]
		if sh.now > m.now {
			m.now = sh.now
		}
		m.windowEvents += sh.stats.Events
		m.Stats.Events += sh.stats.Events
		m.Stats.ContextSwitches += sh.stats.ContextSwitches
		m.Stats.Wakeups += sh.stats.Wakeups
		for label, n := range sh.stats.Migrations {
			m.Stats.Migrations[label] += n
		}
		m.live -= sh.live
		m.exited += sh.live
		sh.stats = Stats{}
		sh.live = 0
	}
	m.trimExited()
}

// drainShard is one window worker: it fires the shard's events in
// (time, seq) order until the queue is empty or the next event is at or
// past the horizon. Events it fires may push more shard-local events,
// which it also drains.
func (m *Machine) drainShard(s int, horizon int64) {
	sh := &m.shardStates[s]
	for {
		e := m.events.ShardPopBefore(s, horizon)
		if e == nil {
			return
		}
		if e.At > sh.now {
			sh.now = e.At
		}
		sh.stats.Events++
		e.Fire(e.At)
	}
}

// RunFor processes events for d of simulated time.
func (m *Machine) RunFor(d time.Duration) int64 { return m.Run(m.now + int64(d)) }

// leastLoadedPlacer is the default accurate placement policy: the
// lowest-loaded allowed core, ties to the lowest ID.
type leastLoadedPlacer struct{}

func (leastLoadedPlacer) Place(m *Machine, t *task.Task) int {
	best, bestLoad := -1, 0
	for _, c := range m.Cores {
		if !c.online || !t.Affinity.Has(c.id) {
			continue
		}
		l := c.sched.NrRunnable()
		if best == -1 || l < bestLoad {
			best, bestLoad = c.id, l
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("sim: no allowed core for task %q (affinity %v)", t.Name, t.Affinity))
	}
	return best
}

// RoundRobinPlacer places the i-th started task on the i-th core of the
// allowed set, wrapping — the initial distribution speedbalancer enforces
// (§5.2: "each of the threads gets pinned ... in round-robin fashion").
type RoundRobinPlacer struct{ n int }

// Place implements Placer. Offline cores are skipped (keeping the
// round-robin position advancing past them); if every allowed core is
// offline the affinity is widened like the kernel's fallback path.
func (p *RoundRobinPlacer) Place(m *Machine, t *task.Task) int {
	cores := t.Affinity.Cores()
	for range cores {
		c := cores[p.n%len(cores)]
		p.n++
		if m.Cores[c].online {
			return c
		}
	}
	return m.fallbackCore(t)
}
