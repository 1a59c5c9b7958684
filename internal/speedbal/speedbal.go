// Package speedbal implements the paper's contribution: user-level speed
// balancing (§5).
//
// Instead of equalising run-queue lengths, speed balancing equalises the
// speed of an application's threads, where speed = t_exec / t_real over
// a balancing interval. A balancer thread runs per core; periodically
// (every ~100 ms plus random jitter) it:
//
//  1. computes the speed of every managed thread on its (local) core
//     over the elapsed interval,
//  2. computes the local core speed as the average of those,
//  3. computes the global core speed as the average over all cores,
//  4. if the local core is faster than the global average, pulls one
//     thread from a suitable remote core — one whose speed is
//     sufficiently below the global average (s_k/s_global < T_s,
//     default 0.9) and that has not been involved in a migration for at
//     least two balance intervals.
//
// The thread pulled is the one that has migrated least ("to avoid
// creating hot-potato tasks"). Migration uses sched_setaffinity
// semantics: the thread is re-pinned to the destination core, moving
// immediately and becoming invisible to the Linux balancer. Migrations
// across NUMA domains are blocked by default (§5.2); per-domain minimum
// intervals allow, e.g., cache-domain migrations twice as often.
package speedbal

import (
	"sort"
	"time"

	"repro/internal/cpuset"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Measure selects the thread-speed signal.
type Measure int

const (
	// MeasureCPUShare is the paper's speed = t_exec / t_real (weighted
	// by the core's relative clock on heterogeneous machines, per §4's
	// extension). Spin- and yield-waiting count as progress, which is
	// what makes blocked co-runners visible (§5).
	MeasureCPUShare Measure = iota
	// MeasureWorkRate is the §7 future-work alternative: speed from a
	// retired-work performance counter (Δwork/Δwall). It sees through
	// contention the CPU share cannot — memory-bandwidth saturation,
	// SMT interference, remote-NUMA stalls — but scores waiting threads
	// as making no progress, and, as §7 warns for real systems, would
	// contend for the performance counters with application tuning.
	MeasureWorkRate
)

// String names the measure.
func (m Measure) String() string {
	if m == MeasureWorkRate {
		return "work-rate"
	}
	return "cpu-share"
}

// PullPolicy selects the victim thread on the remote core. The paper
// uses least-migrated; the others exist for the abl-pull ablation.
type PullPolicy int

const (
	// PullLeastMigrated is the paper's choice.
	PullLeastMigrated PullPolicy = iota
	// PullRandom picks uniformly.
	PullRandom
	// PullMostMigrated deliberately creates hot-potato tasks.
	PullMostMigrated
)

// Config tunes the balancer. The zero value is completed by
// DefaultConfig values in New.
type Config struct {
	// Interval is the balance interval (100 ms in all the paper's
	// experiments, §5.1).
	Interval time.Duration
	// Threshold is T_s: pull only from cores with
	// s_k/s_global < Threshold (0.9 in the paper, §5.2), which absorbs
	// measurement noise when queues are perfectly balanced.
	Threshold float64
	// PostMigrationBlock is the number of balance intervals a core
	// involved in a migration is blocked from further migrations
	// (at least 2, §5.2).
	PostMigrationBlock int
	// BlockNUMA blocks migrations that cross NUMA domains (the paper's
	// configuration on Barcelona).
	BlockNUMA bool
	// Jitter adds up to one balance interval of random delay to each
	// wake-up, breaking migration cycles between queues (§5.1).
	Jitter bool
	// NoiseStdDev perturbs each speed sample multiplicatively with
	// N(0, σ), modelling the taskstats measurement noise the paper
	// compensates for with T_s. Zero disables.
	NoiseStdDev float64
	// AccountingGranularity quantises exec-time readings, modelling the
	// tick-granular cputime accounting of the 2.6.28 kernel (default
	// 1 ms, a HZ=1000 kernel; 10 ms on a HZ=100 build). This is why
	// the paper finds that "using a lower value for the balancing
	// interval might produce inaccurate values for thread speeds"
	// (§6.1): at B close to the tick, Δexec carries a relative error
	// of tick/B. Negative disables quantisation.
	AccountingGranularity time.Duration
	// PullPolicy selects the victim thread (default least-migrated).
	PullPolicy PullPolicy
	// StartupDelay postpones the first balancing pass (the paper's
	// user-tunable delay for /proc to settle).
	StartupDelay time.Duration
	// Measure selects the speed signal (default the paper's CPU share).
	Measure Measure
	// SMTAware weights sampled speeds by the sibling hardware context's
	// occupancy — the paper's stated future work for the Nehalem
	// results ("weight the speed of a task according to the state of
	// the other hardware context", §6). Requires knowing the machine's
	// SMT contention factor, which a deployment calibrates once.
	SMTAware bool
	// EnableSwaps lets the balancer exchange two threads when a plain
	// pull cannot help: with one thread per core on cores of different
	// speeds, pulls only create doubled-up queues, but a swap rotates
	// fast-core time without ever lowering utilisation. This is an
	// extension beyond the paper's pull-only design (see DESIGN.md).
	EnableSwaps bool
	// RescanGroup, when non-empty, makes the balancer poll the machine
	// for new tasks whose Group matches — the paper's "can be easily
	// extended to balance applications with dynamic parallelism by
	// polling the /proc file system" (§5.2 footnote). New threads are
	// adopted and pinned to the core the adoption placement picks (the
	// predicted-fastest core when prediction is active and warm, the
	// least-loaded managed core otherwise — pinning them blindly to
	// wherever they happened to land is the short-job regression the
	// open-bakeoff exposed).
	RescanGroup string
	// Predict enables the anticipatory mode (internal/predict): the
	// balancer keeps decayed per-core and per-thread speed
	// distributions, runs its decisions on horizon-extrapolated
	// effective speeds, pulls from cores whose *predicted* speed
	// crosses T_s when the slowest-core probability bound clears
	// Predict.MinConfidence, and places admitted group threads on the
	// predicted-fastest core. With Predict.Horizon or Predict.Weight
	// zero the decisions degenerate to the reactive balancer exactly
	// (byte-identical output — pinned by difftest).
	Predict predict.Config
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Interval:              100 * time.Millisecond,
		Threshold:             0.9,
		PostMigrationBlock:    2,
		BlockNUMA:             true,
		Jitter:                true,
		NoiseStdDev:           0.01,
		AccountingGranularity: time.Millisecond,
	}
}

// Balancer is the speedbalancer process managing one application.
type Balancer struct {
	cfg Config
	m   *sim.Machine
	rng *xrand.RNG

	// managed is the set of application threads, fixed at Manage time
	// (the /proc PID scan); exited threads are skipped dynamically.
	managed []*task.Task
	// cores is the managed core set (the user-requested cores).
	cores []int

	// speeds[j] is the latest core-speed sample for managed core index
	// j — the only state shared between balancer threads (s_global is
	// derived from it).
	speeds []float64
	// sampled[j] is when core j's balancer last sampled.
	sampled []int64
	// lastStolen[j] is core j's steal-time reading (Core.StolenWall, the
	// /proc/stat steal+irq account) at its last sample, so the idle-core
	// speed estimate can discount kernel noise a newcomer would suffer.
	lastStolen []time.Duration
	// lastMigration[j] is when core j was last involved in a migration
	// (as source or destination).
	lastMigration []int64
	// lastExec[t] is each thread's exec-time reading at its core's last
	// sample; lastWork[t] the work-counter reading (MeasureWorkRate).
	// Entries are purged when the thread exits so churny workloads
	// (rescan groups, make -j competitors) do not grow them unboundedly.
	lastExec map[*task.Task]time.Duration
	lastWork map[*task.Task]float64
	// managedSet maps each managed thread to its rank (index in managed);
	// the rank orders the per-core membership lists.
	managedSet map[*task.Task]int
	// members[j] holds the live managed threads currently on managed core
	// index j, in rank order — the same threads, in the same order, that a
	// scan of managed filtered by CoreID would yield. Maintained through
	// the machine's core-change and task-done hooks so sample/balance do
	// O(threads-on-core) work instead of O(all threads).
	members [][]*task.Task
	// coreIdx maps a managed core's ID to its index j in cores.
	coreIdx map[int]int
	// liveManaged counts managed threads not yet Done (O(1) allDone).
	liveManaged int
	// scanned is the rescan cursor into Machine.Tasks(): tasks are
	// append-only and their Group is fixed at creation, so each rescan
	// only needs to look at tasks created since the previous one.
	scanned int
	// wakeTimers[j] is core index j's reusable balancer-wake timer.
	wakeTimers []*sim.Timer

	// tracker holds the predictive estimators (nil unless
	// Predict.Enabled); predActive caches Predict.Active() — the gate
	// on every decision the predictor may change.
	tracker    *predict.Tracker
	predActive bool
	// prevPlacer is the fork-placement policy the predictive placer
	// wraps; non-group tasks delegate to it unchanged.
	prevPlacer sim.Placer
	// effBuf, distBuf, idxBuf, probOf and predSlowest are the
	// per-balance-pass scratch buffers of the predictive path,
	// preallocated so prediction adds no steady-state allocation.
	// probOf[k] is core index k's slowest-probability bound this pass
	// (−1 when unsampled or cold); predSlowest[j] is the core index
	// balancer thread j predicted slowest at its previous pass (−1
	// none), resolved against the realized slowest for the hit/miss
	// audit.
	effBuf      []float64
	distBuf     []predict.Dist
	idxBuf      []int
	boundsBuf   []float64
	probOf      []float64
	predSlowest []int
	// occAtSample[j] is how many runnable tasks shared core j when its
	// speed was last sampled (≥1); the placer multiplies it back out to
	// recover the core's capacity from the per-thread speed, then
	// divides by the live occupancy.
	occAtSample []int

	// Migrations counts pulls performed, for reporting.
	Migrations int
	// Swaps counts thread exchanges (EnableSwaps extension).
	Swaps int
	// Adopted counts threads discovered by the dynamic rescan.
	Adopted int
	// PredictPulls counts anticipatory pulls: candidates whose realized
	// speed was still above threshold when the prediction fired.
	PredictPulls int
	// PredictHits and PredictMisses audit the slowest-core predictions
	// against the next pass's realized speeds.
	PredictHits, PredictMisses int
	// OnMigrate, if set, observes every pull (testing/tracing).
	OnMigrate func(t *task.Task, from, to int, now int64)
	stopped   bool
}

// New creates a balancer with cfg; zero fields take defaults.
func New(cfg Config) *Balancer {
	d := DefaultConfig()
	if cfg.Interval == 0 {
		cfg.Interval = d.Interval
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = d.Threshold
	}
	if cfg.PostMigrationBlock == 0 {
		cfg.PostMigrationBlock = d.PostMigrationBlock
	}
	if cfg.AccountingGranularity == 0 {
		cfg.AccountingGranularity = d.AccountingGranularity
	}
	if cfg.Predict.Enabled {
		// Complete the estimator knobs; Horizon and Weight stay as
		// given — they are the degeneracy dials the ablations sweep.
		pd := predict.DefaultConfig()
		if cfg.Predict.MinConfidence == 0 {
			cfg.Predict.MinConfidence = pd.MinConfidence
		}
		if cfg.Predict.Decay == 0 {
			cfg.Predict.Decay = pd.Decay
		}
		if cfg.Predict.MinWeight == 0 {
			cfg.Predict.MinWeight = pd.MinWeight
		}
	}
	return &Balancer{
		cfg:        cfg,
		lastExec:   make(map[*task.Task]time.Duration),
		lastWork:   make(map[*task.Task]float64),
		managedSet: make(map[*task.Task]int),
	}
}

// Default creates a balancer with the paper's parameters.
func Default() *Balancer { return New(DefaultConfig()) }

// Launch builds-and-manages in one step: it pins the application's
// threads round-robin across the allowed cores (the initial distribution
// of §5.2, maximising hardware parallelism), starts them, and begins
// balancing. Call before or after Machine.Run has started.
func (b *Balancer) Launch(m *sim.Machine, app *spmd.App) {
	app.StartPinned()
	b.Manage(m, app.Tasks, app.Spec.Affinity)
	m.AddActor(b)
}

// Manage registers the threads and the managed core set without starting
// anything; use with AddActor for already-running tasks. Calling it again
// mid-run admits a new batch of threads: the managed core set stays fixed
// at what Start saw (the per-core state arrays are sized then), and a
// wake loop that drained after the previous batch finished is re-armed.
func (b *Balancer) Manage(m *sim.Machine, threads []*task.Task, cores cpuset.Set) {
	if cores.Empty() {
		cores = m.Topo.AllCores()
	}
	for _, t := range threads {
		if _, ok := b.managedSet[t]; !ok {
			b.addManaged(t)
		}
	}
	if b.wakeTimers == nil {
		b.cores = cores.Cores()
	} else if !b.stopped {
		b.ensureTimers(b.m.Now())
	}
}

// addManaged appends a thread to the managed set at the next rank and,
// once the balancer has started, threads it into the membership lists.
func (b *Balancer) addManaged(t *task.Task) {
	b.managedSet[t] = len(b.managed)
	b.managed = append(b.managed, t)
	if b.members == nil {
		return // Start will build the lists from managed
	}
	if t.State == task.Done {
		return
	}
	b.liveManaged++
	if j, ok := b.coreIdx[t.CoreID]; ok {
		// The newest rank sorts last, so this is an append.
		b.members[j] = append(b.members[j], t)
	}
}

// Start implements sim.Actor: one balancer thread per managed core.
func (b *Balancer) Start(m *sim.Machine) {
	b.m = m
	b.rng = m.RNG()
	if len(b.cores) == 0 {
		// Rescan-only usage (no explicit Manage): watch every core.
		b.cores = m.Topo.AllCores().Cores()
	}
	n := len(b.cores)
	b.speeds = make([]float64, n)
	b.sampled = make([]int64, n)
	b.lastStolen = make([]time.Duration, n)
	b.lastMigration = make([]int64, n)
	for j := range b.speeds {
		b.speeds[j] = -1 // unsampled
	}
	b.coreIdx = make(map[int]int, n)
	for j, c := range b.cores {
		b.coreIdx[c] = j
	}
	b.members = make([][]*task.Task, n)
	for _, t := range b.managed {
		if t.State == task.Done {
			continue
		}
		b.liveManaged++
		if j, ok := b.coreIdx[t.CoreID]; ok {
			b.members[j] = append(b.members[j], t)
		}
	}
	if b.cfg.Predict.Enabled {
		b.tracker = predict.NewTracker(b.cfg.Predict, n, b.cfg.Interval)
		b.predActive = b.cfg.Predict.Active()
		b.effBuf = make([]float64, n)
		b.occAtSample = make([]int, n)
	}
	if b.predActive {
		b.distBuf = make([]predict.Dist, 0, n)
		b.idxBuf = make([]int, 0, n)
		b.boundsBuf = make([]float64, n)
		b.probOf = make([]float64, n)
		b.predSlowest = make([]int, n)
		for j := range b.predSlowest {
			b.predSlowest[j] = -1
		}
		if b.cfg.RescanGroup != "" {
			// Wake-time placement: admitted group threads start on the
			// predicted-fastest core instead of wherever the wrapped
			// (load-based) placer would put them.
			b.prevPlacer = m.GetPlacer()
			m.SetPlacer(b)
		}
	}
	m.OnCoreChange(b.noteMove)
	m.OnTaskDone(b.noteDone)
	m.OnTaskStart(b.noteStart)
	m.OnOnlineChange(b.noteOnline)
	// The balancer threads may ride their cores' shard queues — and so
	// run inside parallel windows — only when every core they can read
	// or pull from (the whole managed set) lives in one shard. A rescan
	// group additionally scans machine-global task state, which pins the
	// timers to the control queue.
	shardLocal := b.cfg.RescanGroup == ""
	if shardLocal {
		shard := m.ShardOf(b.cores[0])
		for _, c := range b.cores[1:] {
			if m.ShardOf(c) != shard {
				shardLocal = false
				break
			}
		}
	}
	b.wakeTimers = make([]*sim.Timer, n)
	for j := range b.cores {
		j := j
		fn := func(now int64) { b.wake(j, now) }
		if shardLocal {
			b.wakeTimers[j] = m.NewCoreTimer(b.cores[j], fn)
		} else {
			b.wakeTimers[j] = m.NewTimer(fn)
		}
		delay := b.cfg.StartupDelay + b.cfg.Interval
		b.wakeTimers[j].Schedule(m.Now() + int64(delay) + b.jitter())
	}
}

// noteMove keeps the membership lists consistent with t.CoreID: the
// machine invokes it on first placement and on every migration,
// whichever component moved the task.
func (b *Balancer) noteMove(t *task.Task, from, to int) {
	rank, ok := b.managedSet[t]
	if !ok || t.State == task.Done {
		return
	}
	if j, ok := b.coreIdx[from]; ok {
		b.removeMember(j, t)
	}
	if j, ok := b.coreIdx[to]; ok {
		b.insertMember(j, t, rank)
	}
	// The thread's lastExec/lastWork baselines are deliberately NOT
	// rebased at the move. The pending Δexec since its last sample was
	// earned on the source core, so the destination's next window can
	// see a per-thread share above 1 and read spuriously fast for one
	// interval — exactly what the paper's /proc-reading user-level
	// balancer measures after a pull (per-thread counters are
	// cumulative; residence is whatever the scan finds). The artifact is
	// self-correcting after one window and acts as post-pull hysteresis:
	// a freshly loaded core briefly reads fast, which suppresses
	// immediate follow-on pulls toward its neighbours. Rebasing here
	// (measured) costs EP ~15% of its speedup via over-pulling.
	// Hotplug-drain staleness is handled separately: noteOnline
	// invalidates the *core's* sample window at unplug and replug.
}

// noteOnline invalidates a managed core's speed sample when the core is
// unplugged or replugged: a stale sample would otherwise keep skewing
// s_global — and keep attracting pulls toward the measurement of a core
// that no longer runs anything — until the core's own balancer thread
// next woke. The sample window restarts at the transition so the first
// post-replug sample does not average across the offline gap.
func (b *Balancer) noteOnline(c *sim.Core, online bool) {
	j, ok := b.coreIdx[c.ID()]
	if !ok {
		return
	}
	b.speeds[j] = -1
	b.sampled[j] = b.m.Now()
	b.lastStolen[j] = c.StolenWall()
	if b.tracker != nil {
		// The old distribution is evidence about a machine that no
		// longer exists on either side of the transition.
		b.tracker.ResetCore(j)
	}
}

// noteStart is the admission-side mirror of noteDone: the machine
// invokes it when a task first reaches a core. The wake timers
// deliberately die when there is nothing left to balance (allDone for a
// fixed set, or a drained machine under a rescan group); before this
// hook, a thread admitted afterwards — an open-system arrival, or a
// late Manage batch — was never balanced because no timer remained to
// observe it. Admission re-arms the loop. Task starts are machine-global
// events (never inside a parallel shard window), so the re-arm happens
// at a globally synchronised instant on every engine configuration.
func (b *Balancer) noteStart(t *task.Task) {
	if b.stopped || b.wakeTimers == nil {
		return
	}
	if _, ok := b.managedSet[t]; !ok {
		if b.cfg.RescanGroup == "" || t.Group != b.cfg.RescanGroup {
			return
		}
	}
	b.ensureTimers(b.m.Now())
}

// ensureTimers restarts every dead wake timer one interval (plus jitter)
// from now. Pending timers are left alone, so a burst of admissions
// neither postpones nor duplicates an already-scheduled pass.
func (b *Balancer) ensureTimers(now int64) {
	for j := range b.wakeTimers {
		if !b.wakeTimers[j].Pending() {
			b.wakeTimers[j].Schedule(now + int64(b.cfg.Interval) + b.jitter())
		}
	}
}

// noteDone drops an exited managed thread from its membership list and
// purges its speed-accounting map entries, keeping both bounded across
// churny workloads.
func (b *Balancer) noteDone(t *task.Task) {
	if _, ok := b.managedSet[t]; !ok {
		return
	}
	if j, ok := b.coreIdx[t.CoreID]; ok {
		b.removeMember(j, t)
	}
	delete(b.lastExec, t)
	delete(b.lastWork, t)
	if b.tracker != nil {
		b.tracker.ForgetThread(t.ID)
	}
	b.liveManaged--
}

// insertMember inserts t into members[j] at its rank position, so the
// list stays in managed order — the iteration order sample and
// pickVictim depend on for bit-identical results.
func (b *Balancer) insertMember(j int, t *task.Task, rank int) {
	l := b.members[j]
	i := sort.Search(len(l), func(i int) bool { return b.managedSet[l[i]] > rank })
	l = append(l, nil)
	copy(l[i+1:], l[i:])
	l[i] = t
	b.members[j] = l
}

// removeMember deletes t from members[j] if present.
func (b *Balancer) removeMember(j int, t *task.Task) {
	l := b.members[j]
	for i, o := range l {
		if o == t {
			copy(l[i:], l[i+1:])
			l[len(l)-1] = nil
			b.members[j] = l[:len(l)-1]
			return
		}
	}
}

// Stop halts further balancing (the balancer exits with the app).
func (b *Balancer) Stop() { b.stopped = true }

func (b *Balancer) jitter() int64 {
	if !b.cfg.Jitter {
		return 0
	}
	return b.rng.Jitter(int64(b.cfg.Interval))
}

// wake is one balancer-thread activation on managed core index j.
func (b *Balancer) wake(j int, now int64) {
	if b.stopped {
		return
	}
	if j == 0 && b.cfg.RescanGroup != "" {
		b.rescan(now)
	}
	if b.allDone() && b.cfg.RescanGroup == "" {
		// Fixed set finished: let the wake loop drain. A later Manage
		// batch or task admission restarts it through noteStart.
		return
	}
	if b.cfg.RescanGroup != "" && b.m.LiveTasks() == 0 {
		// Dynamic group, machine drained: with no live task left to
		// spawn new group members, rescanning forever would keep the
		// event queue busy after the workload has exited. A mid-run
		// admission (an open-system arrival) re-arms the loop through
		// noteStart, so dying here is safe, not just frugal.
		return
	}
	if !b.m.Cores[b.cores[j]].Online() {
		// The core was hot-unplugged: its threads were drained elsewhere,
		// so there is nothing to measure and pulling work here would be a
		// bug. Keep the thread alive (the real balancer thread would just
		// find itself migrated off the dead core) and keep the sample
		// window fresh for the replug.
		b.speeds[j] = -1
		b.sampled[j] = now
		b.lastStolen[j] = b.m.Cores[b.cores[j]].StolenWall()
		if b.tracker != nil {
			b.tracker.ResetCore(j)
		}
		b.wakeTimers[j].Schedule(now + int64(b.cfg.Interval) + b.jitter())
		return
	}
	b.sample(j, now)
	b.balance(j, now)
	b.wakeTimers[j].Schedule(now + int64(b.cfg.Interval) + b.jitter())
}

// rescan adopts newly appeared tasks of the managed group — the §5.2
// dynamic-parallelism extension (polling /proc for new PIDs). Adopted
// threads are pinned so the Linux balancer stops moving them; speed
// balancing takes over. The pin target is the adoption placement — the
// predicted-fastest core when prediction is warm, the least-loaded
// managed core otherwise — NOT blindly the core the thread happened to
// land on: pinning short open jobs wherever the fork placer's stale
// snapshot dropped them was the low-ρ p95 regression the open-bakeoff
// exposed (a job shorter than the balance interval finishes before any
// pull can rescue it, so the adoption pin is the only placement it ever
// gets). Tasks are created in order and never change group, so only
// those that appeared since the last rescan need looking at.
func (b *Balancer) rescan(now int64) {
	tasks := b.m.Tasks()
	for _, t := range tasks[b.scanned:] {
		if t.Group != b.cfg.RescanGroup || t.State == task.Done {
			continue
		}
		if _, ok := b.managedSet[t]; ok {
			continue
		}
		b.addManaged(t)
		b.Adopted++
		if t.CoreID >= 0 {
			dst := b.adoptionCore(t)
			t.Affinity = cpuset.Of(dst)
			if dst != t.CoreID {
				// A placement correction, not a balance pull: it does
				// not consume the post-migration block.
				b.m.MigrateNow(t, dst, "speedbal-adopt")
			}
		}
	}
	b.scanned = len(tasks)
}

// adoptionCore picks where a freshly adopted thread is pinned: the
// predicted-fastest managed core when the predictor is active and warm,
// else the least-loaded online managed core (ties prefer the thread's
// current core — no gratuitous migration — then the lowest ID). When no
// managed core is usable the thread keeps its current core, the paper's
// original pin.
func (b *Balancer) adoptionCore(t *task.Task) int {
	if c, ok := b.predictedFastestCore(t); ok {
		return c
	}
	best, bestLoad := -1, 0
	for _, core := range b.cores {
		c := b.m.Cores[core]
		if !c.Online() || !t.Affinity.Has(core) {
			continue
		}
		l := c.NrRunnable()
		if best == -1 || l < bestLoad || (l == bestLoad && core == t.CoreID) {
			best, bestLoad = core, l
		}
	}
	if best < 0 {
		return t.CoreID
	}
	return best
}

// predictedFastestCore scores the managed cores by the speed a newcomer
// would get *now*: the predicted per-thread speed, multiplied back by
// the sample-time occupancy to recover the core's capacity, divided by
// the live occupancy plus the newcomer. Rebasing to live occupancy is
// what keeps the placer at least as current as least-loaded (which it
// degenerates to on a homogeneous clean machine) while still steering
// around cores whose *capacity* the predictor has learned is low —
// IRQ-saturated, down-clocked — which queue lengths cannot show.
// A core whose distribution is still cold — start of run, or freshly
// replugged after ResetCore — is scored at its nominal capacity (base
// clock, live occupancy): the optimistic prior keeps the placer engaged
// under hotplug churn, where some core is nearly always cold, and
// degenerates to least-loaded when every core is cold. Returns ok=false
// only when prediction is off or no managed core is eligible.
func (b *Balancer) predictedFastestCore(t *task.Task) (int, bool) {
	if !b.predActive {
		return 0, false
	}
	h := b.cfg.Predict.Horizon
	best, bestScore := -1, 0.0
	for j, core := range b.cores {
		c := b.m.Cores[core]
		if !c.Online() || !t.Affinity.Has(core) {
			continue
		}
		cap := c.Info().BaseSpeed
		if b.tracker.CoreWarm(j) {
			cap = b.tracker.Predicted(j, h) * float64(b.occAtSample[j])
		}
		s := cap / float64(c.NrRunnable()+1)
		if best == -1 || s > bestScore {
			best, bestScore = core, s
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// Place implements sim.Placer: managed-group tasks start on the
// predicted-fastest core; everything else delegates to the placer this
// one wrapped at Start. Installed only when prediction is active and a
// rescan group is configured — placement is where anticipation pays
// most, since a job shorter than the balance interval is never touched
// again.
func (b *Balancer) Place(m *sim.Machine, t *task.Task) int {
	if t.Group == b.cfg.RescanGroup {
		if c, ok := b.predictedFastestCore(t); ok {
			if reg := m.Metrics(); reg != nil {
				reg.Counter("speedbal.predict.place").Inc()
			}
			return c
		}
	}
	return b.prevPlacer.Place(m, t)
}

// allDone reports whether every managed thread has exited. With a
// rescan group configured, an empty managed set means "nothing yet",
// not "done".
func (b *Balancer) allDone() bool {
	if len(b.managed) == 0 {
		return b.cfg.RescanGroup == ""
	}
	return b.liveManaged == 0
}

// sample computes the local core speed: the average, over the managed
// threads currently on the core, of Δexec/Δwall since this balancer's
// previous sample (steps 1–2 of §5.1).
func (b *Balancer) sample(j int, now int64) {
	coreID := b.cores[j]
	c := b.m.Cores[coreID]
	c.Sync()
	wall := time.Duration(now - b.sampled[j])
	if wall <= 0 {
		// A zero-length window carries no information: leave the window
		// open (do not consume it) so the next wake samples across the
		// whole elapsed interval instead of publishing a stale speed.
		return
	}
	b.sampled[j] = now
	// Difference the core's steal account over the window: the share of
	// wall time kernel noise took regardless of what ran. Busy cores
	// already see theft through their threads' exec times; the idle-core
	// estimate below needs it read directly.
	stolenNow := c.StolenWall()
	stolenFrac := float64(stolenNow-b.lastStolen[j]) / float64(wall)
	b.lastStolen[j] = stolenNow
	if stolenFrac < 0 {
		stolenFrac = 0
	} else if stolenFrac > 1 {
		stolenFrac = 1
	}
	var sum float64
	var cnt int
	for _, t := range b.members[j] {
		var s float64
		if b.cfg.Measure == MeasureWorkRate {
			// Performance-counter extension (§7): retired work per
			// wall time. The counter sees contention losses directly.
			d := t.WorkDone - b.lastWork[t]
			b.lastWork[t] = t.WorkDone
			s = d / float64(wall)
		} else {
			// Read exec time the way the taskstats interface reports
			// it: quantised to the accounting tick.
			read := t.ExecTime
			if g := b.cfg.AccountingGranularity; g > 0 {
				read = read / g * g
			}
			d := read - b.lastExec[t]
			b.lastExec[t] = read
			// Weight the CPU share by the core's relative clock: §4
			// notes the argument "can be easily extended to
			// heterogeneous systems ... by weighting with the relative
			// core speed". The clock rating is static information
			// (/sys), so the user-level balancer may use it.
			s = task.Speed(d, wall) * c.Info().BaseSpeed
			if b.cfg.SMTAware {
				// Future-work extension (§6): discount the share by
				// the sibling hardware context's utilisation.
				s *= b.smtFactor(coreID)
			}
		}
		if b.cfg.NoiseStdDev > 0 {
			s *= 1 + b.cfg.NoiseStdDev*b.rng.NormFloat64()
			if s < 0 {
				s = 0
			}
		}
		if b.tracker != nil {
			// Feed the per-thread distribution from the same (noisy)
			// reading the balancer acts on — the predictor models what
			// the balancer can measure, not ground truth.
			b.tracker.ObserveThread(t.ID, s)
		}
		sum += s
		cnt++
	}
	occ := c.NrRunnable()
	if occ < 1 {
		occ = 1
	}
	if cnt == 0 {
		// No managed thread here: the core's "speed" for the
		// application is the share a newcomer would get — high when
		// the core is idle, low when unrelated work occupies it or
		// kernel noise (the steal account) is eating it.
		occ = c.NrRunnable() + 1
		s := (1 - stolenFrac) / float64(occ) * c.Info().BaseSpeed
		if b.cfg.SMTAware {
			s *= b.smtFactor(coreID)
		}
		b.speeds[j] = s
	} else {
		b.speeds[j] = sum / float64(cnt)
	}
	if b.tracker != nil {
		// The tracker's last-sample field mirrors speeds[j] exactly;
		// that identity is what makes a zero-horizon prediction
		// degenerate to the realized sample bit-for-bit. occAtSample
		// remembers how many ways the core was being shared when the
		// sample was taken, so the placer can rebase the per-thread
		// speed to the live occupancy at fork time.
		b.tracker.ObserveCore(j, b.speeds[j], now)
		b.occAtSample[j] = occ
	}
	if reg := b.m.Metrics(); reg != nil {
		reg.Histogram("speedbal.core_speed", speedBuckets).Observe(b.speeds[j])
	}
}

// speedBuckets spans the plausible core-speed range (base clocks ≈ 1;
// contention and sharing push samples toward 0).
var speedBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.25, 1.5, 2.0}

// probBuckets spans [0,1] for the predicted slowest-core probability
// histogram (speedbal.predict.slowest_p).
var probBuckets = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}

// smtFactor returns the speed discount for the sibling hardware
// context's current occupancy.
func (b *Balancer) smtFactor(coreID int) float64 {
	info := b.m.Cores[coreID].Info()
	if info.SMTSiblings.Count() <= 1 {
		return 1
	}
	for _, s := range info.SMTSiblings.Cores() {
		if s != coreID && !b.m.Cores[s].Idle() {
			return sim.SMTContention
		}
	}
	return 1
}

// globalSpeed averages the per-core speeds (step 3 of §5.1). Cores not
// yet sampled are skipped.
func (b *Balancer) globalSpeed() float64 { return avgSpeed(b.speeds) }

// avgSpeed averages the sampled (non-negative) entries of a speed
// vector — realized or effective.
func avgSpeed(xs []float64) float64 {
	var sum float64
	var n int
	for _, s := range xs {
		if s >= 0 {
			sum += s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// effSpeeds fills effBuf with the effective speeds the balance pass
// decides on: each realized sample blended toward its prediction,
// eff[k] = s_k + Weight·(Predicted(k, Horizon) − s_k). The blend is
// algebraically — and, because Predicted(k, 0) returns the realized
// sample verbatim, bit-for-bit — the identity when Horizon or Weight is
// zero, which is the reactive-degeneracy contract the difftest property
// test pins down. Unsampled (negative) and cold cores pass through
// unchanged.
func (b *Balancer) effSpeeds() []float64 {
	if b.tracker == nil {
		return b.speeds
	}
	for k, sk := range b.speeds {
		e := sk
		if sk >= 0 && b.tracker.CoreWarm(k) {
			p := b.tracker.Predicted(k, b.cfg.Predict.Horizon)
			e = sk + b.cfg.Predict.Weight*(p-sk)
			if e < 0 {
				e = 0
			}
		}
		b.effBuf[k] = e
	}
	return b.effBuf
}

// slowestProbs computes, for every sampled+warm+online managed core,
// the order-statistic lower bound on "this core is the slowest next
// interval" from the effective means and the estimators' spreads.
// probOf[k] is −1 for cores with no usable distribution.
func (b *Balancer) slowestProbs(eff []float64) []float64 {
	b.distBuf = b.distBuf[:0]
	b.idxBuf = b.idxBuf[:0]
	for k, e := range eff {
		b.probOf[k] = -1
		if e < 0 || !b.tracker.CoreWarm(k) || !b.m.Cores[b.cores[k]].Online() {
			continue
		}
		b.distBuf = append(b.distBuf, predict.Dist{Mean: e, Std: b.tracker.CoreStd(k)})
		b.idxBuf = append(b.idxBuf, k)
	}
	if len(b.distBuf) > 0 {
		out := predict.SlowestLowerBounds(b.distBuf, b.boundsBuf[:len(b.distBuf)])
		for i, k := range b.idxBuf {
			b.probOf[k] = out[i]
		}
	}
	return b.probOf
}

// marginalBelow is the predictor's marginal confidence that core index
// k's speed stays below the pull threshold next interval: the CDF of
// its (effective-mean, decayed-spread) distribution at T_s times the
// effective global speed.
func (b *Balancer) marginalBelow(k int, skEff, sgEff float64) float64 {
	d := predict.Dist{Mean: skEff, Std: b.tracker.CoreStd(k)}
	return d.CDF(b.cfg.Threshold * sgEff)
}

// auditPrediction resolves balancer thread j's previous slowest-core
// prediction against the realized speeds of this pass (hit/miss
// counters), then records the new prediction: the core with the lowest
// effective speed among those with a live distribution. The
// order-statistic bound is the prediction's *confidence*, observed into
// the histogram — it is not the point prediction itself, because the
// midpoint bounds all collapse to zero when several cores crowd the
// slow side, which would degenerate an argmax to the first index.
func (b *Balancer) auditPrediction(j int, eff, probs []float64) {
	reg := b.m.Metrics()
	if prev := b.predSlowest[j]; prev >= 0 {
		arg := -1
		var min float64
		for k, s := range b.speeds {
			if s < 0 || !b.m.Cores[b.cores[k]].Online() {
				continue
			}
			if arg == -1 || s < min {
				arg, min = k, s
			}
		}
		if arg >= 0 {
			if arg == prev {
				b.PredictHits++
				if reg != nil {
					reg.Counter("speedbal.predict.hit").Inc()
				}
			} else {
				b.PredictMisses++
				if reg != nil {
					reg.Counter("speedbal.predict.miss").Inc()
				}
			}
		}
	}
	best := -1
	for k, p := range probs {
		if p >= 0 && (best == -1 || eff[k] < eff[best]) {
			best = k
		}
	}
	b.predSlowest[j] = best
	if best >= 0 && reg != nil {
		reg.Histogram("speedbal.predict.slowest_p", probBuckets).Observe(probs[best])
	}
}

// balance is step 4 of §5.1: if the local core is faster than the global
// average, pull one thread from a suitable slower core. With prediction
// active the decision runs on *effective* speeds (realized blended
// toward predicted), and a candidate that qualifies only predictively —
// its realized speed is still above T_s — additionally needs its
// slowest-core probability bound to clear MinConfidence before the pull
// fires as a KindPredictMigrate.
func (b *Balancer) balance(j int, now int64) {
	sj := b.speeds[j]
	if sj < 0 {
		return
	}
	sg := b.globalSpeed()
	// Effective (prediction-blended) counterparts. The reactive decision
	// path below runs on realized speeds exactly as always; the
	// effective values only ever *add* anticipatory candidates, so
	// prediction cannot suppress a pull the reactive balancer would have
	// made — misprediction degrades toward reactive, never below it.
	eff := b.effSpeeds()
	sjEff, sgEff := eff[j], avgSpeed(eff)
	var probs []float64
	if b.predActive {
		probs = b.slowestProbs(eff)
		b.auditPrediction(j, eff, probs)
	}
	local := b.cores[j]
	tr := b.m.Tracing()
	if tr {
		b.m.Emit(trace.Event{Kind: trace.KindBalanceWake, Core: local, Label: "speedbal",
			SLocal: sj, SGlobal: sg, Threshold: b.cfg.Threshold})
	}
	reactivePass := sg > 0 && sj > sg
	predictPass := b.predActive && sgEff > 0 && sjEff > sgEff
	if !reactivePass && !predictPass {
		if tr {
			b.traceSkip(local, local, "not-above-global", 0, sg)
		}
		return
	}
	block := int64(b.cfg.PostMigrationBlock) * int64(b.cfg.Interval)
	if now-b.lastMigration[j] < block {
		if tr {
			b.traceSkip(local, local, "post-migration-block", 0, sg)
		}
		return
	}
	// Collect the suitable remote cores, slowest first; pull from the
	// slowest one that actually holds a migratable managed thread (a
	// core occupied only by unrelated work is slow but has nothing for
	// us to take).
	type cand struct {
		k        int
		sk       float64
		dist     topo.Distance
		predOnly bool
	}
	var cands []cand
	for k, remote := range b.cores {
		if k == j || b.speeds[k] < 0 {
			continue
		}
		if !b.m.Cores[remote].Online() {
			// Unplugged since its last sample: nothing runs there and a
			// swap would try to push a thread onto a dead core.
			if tr {
				b.traceSkip(local, remote, "offline", b.speeds[k], sg)
			}
			continue
		}
		sk := b.speeds[k]
		// Reactive qualification, on realized speeds — unchanged from
		// the paper's test. Failing it, a candidate may still qualify
		// *predictively*: its effective speed crosses the threshold and
		// the predictor is confident enough (the order-statistic
		// slowest-core bound, or — since that bound collapses when
		// several cores crowd the slow side of the midpoint — the
		// marginal probability of sub-threshold speed next interval).
		predOnly := false
		if !(reactivePass && sk < sg && sk/sg < b.cfg.Threshold) {
			skEff := eff[k]
			predOK := predictPass && probs[k] >= 0 &&
				skEff < sgEff && skEff/sgEff < b.cfg.Threshold
			if predOK {
				conf := probs[k]
				if mc := b.marginalBelow(k, skEff, sgEff); mc > conf {
					conf = mc
				}
				if conf < b.cfg.Predict.MinConfidence {
					if tr {
						b.traceSkip(local, remote, "predict-low-confidence", skEff, sgEff)
					}
					continue
				}
			}
			if !predOK {
				if tr {
					b.traceSkip(local, remote, "above-threshold", sk, sg)
				}
				continue
			}
			predOnly, sk = true, skEff
		}
		if now-b.lastMigration[k] < block {
			if tr {
				b.traceSkip(local, remote, "post-migration-block", sk, sg)
			}
			continue
		}
		d := b.m.Topo.Distance(remote, local)
		if b.cfg.BlockNUMA && d >= topo.DistNUMA {
			if tr {
				b.traceSkip(local, remote, "numa-block", sk, sg)
			}
			continue
		}
		if b.cfg.SMTAware && d == topo.DistSMT {
			// Moving a thread between two contexts of the same
			// physical core cannot change its SMT contention.
			if tr {
				b.traceSkip(local, remote, "smt-same-core", sk, sg)
			}
			continue
		}
		cands = append(cands, cand{k, sk, d, predOnly})
	}
	// Prefer nearby sources: migrations between cache-sharing cores are
	// orders of magnitude cheaper, which is why §5.2 lets them happen
	// more often ("migrations ... twice as often between cores that
	// share a cache"). Ties break toward the slowest core.
	sort.Slice(cands, func(a, bb int) bool {
		if cands[a].dist != cands[bb].dist {
			return cands[a].dist < cands[bb].dist
		}
		if cands[a].sk != cands[bb].sk {
			return cands[a].sk < cands[bb].sk
		}
		return cands[a].k < cands[bb].k
	})
	for _, c := range cands {
		victim := b.pickVictim(b.cores[c.k], local)
		if victim == nil {
			if tr {
				b.traceSkip(local, b.cores[c.k], "no-victim", c.sk, sg)
			}
			continue
		}
		remote := b.cores[c.k]
		// Anticipatory pulls never take the swap path: the swap is a
		// remedy for a *realized* one-thread-per-core imbalance, and
		// trading threads on a prediction would double the misprediction
		// cost (two wrong moves instead of one).
		if c.predOnly {
			if tr {
				b.m.Emit(trace.Event{Kind: trace.KindPredictMigrate, Core: local,
					Task: victim.ID, TaskName: victim.Name, Src: remote, Dst: local,
					SLocal: sjEff, SK: b.speeds[c.k], SPred: c.sk, SGlobal: sgEff,
					Threshold: b.cfg.Threshold})
			}
			victim.Affinity = cpuset.Of(local)
			b.m.MigrateNow(victim, local, "speedbal-predict")
			b.Migrations++
			b.PredictPulls++
			if reg := b.m.Metrics(); reg != nil {
				reg.Counter("speedbal.predict.pull").Inc()
			}
			if b.OnMigrate != nil {
				b.OnMigrate(victim, remote, local, now)
			}
			b.lastMigration[j] = now
			b.lastMigration[c.k] = now
			return
		}
		if b.cfg.EnableSwaps && b.countManaged(remote) == 1 && b.countManaged(local) >= 1 {
			// Pull-only balancing cannot help a one-thread-per-core
			// imbalance (the pull would just double up the local
			// queue): exchange the two threads instead, rotating
			// fast-core time at constant utilisation.
			give := b.pickVictim(local, remote)
			if give != nil && give != victim {
				if tr {
					b.m.Emit(trace.Event{Kind: trace.KindBalancePull, Core: local,
						Task: victim.ID, TaskName: victim.Name, Src: remote, Dst: local,
						SLocal: sj, SK: c.sk, SGlobal: sg, Threshold: b.cfg.Threshold})
				}
				victim.Affinity = cpuset.Of(local)
				give.Affinity = cpuset.Of(remote)
				b.m.MigrateNow(victim, local, "speedbal-swap")
				b.m.MigrateNow(give, remote, "speedbal-swap")
				b.Swaps++
				if b.OnMigrate != nil {
					b.OnMigrate(victim, remote, local, now)
					b.OnMigrate(give, local, remote, now)
				}
				b.lastMigration[j] = now
				b.lastMigration[c.k] = now
				return
			}
		}
		// sched_setaffinity: re-pin to the destination; the Linux
		// balancer will not touch it afterwards (§5.2).
		if tr {
			b.m.Emit(trace.Event{Kind: trace.KindBalancePull, Core: local,
				Task: victim.ID, TaskName: victim.Name, Src: remote, Dst: local,
				SLocal: sj, SK: c.sk, SGlobal: sg, Threshold: b.cfg.Threshold})
		}
		victim.Affinity = cpuset.Of(local)
		b.m.MigrateNow(victim, local, "speedbal")
		b.Migrations++
		if b.OnMigrate != nil {
			b.OnMigrate(victim, b.cores[c.k], local, now)
		}
		b.lastMigration[j] = now
		b.lastMigration[c.k] = now
		return
	}
}

// traceSkip records a balancer decision not to pull. remote == local
// marks a whole-pass skip rather than a per-candidate one (the exporter
// omits the candidate fields in that case).
func (b *Balancer) traceSkip(local, remote int, reason string, sk, sg float64) {
	b.m.Emit(trace.Event{Kind: trace.KindBalanceSkip, Core: local, Src: remote,
		Label: "speedbal", Reason: reason, SK: sk, SGlobal: sg})
}

// countManaged returns the number of live managed threads on the core.
func (b *Balancer) countManaged(core int) int {
	return len(b.members[b.coreIdx[core]])
}

// pickVictim chooses which managed thread to pull off the remote core:
// the least-migrated by default.
func (b *Balancer) pickVictim(remote, local int) *task.Task {
	var cands []*task.Task
	for _, t := range b.members[b.coreIdx[remote]] {
		if t.State == task.Sleeping || t.State == task.Blocked {
			// Re-pinning a sleeper is possible but pointless: its
			// speed contribution is already reflected in co-runners.
			continue
		}
		cands = append(cands, t)
	}
	if len(cands) == 0 {
		return nil
	}
	switch b.cfg.PullPolicy {
	case PullRandom:
		return cands[b.rng.Intn(len(cands))]
	case PullMostMigrated:
		pick := cands[0]
		for _, t := range cands[1:] {
			if t.Migrations > pick.Migrations {
				pick = t
			}
		}
		return pick
	default:
		// PullLeastMigrated, preferring a queued thread over the
		// running one at equal migration counts: yanking a thread
		// mid-compute (sched_setaffinity moves it immediately)
		// disrupts more than redirecting one that is waiting its turn.
		// With prediction active an intermediate tie-break applies
		// first: pull the thread with the lowest tracked speed mean —
		// the one suffering most on the slow core gains most from the
		// move. Inert when prediction is off or either mean is unknown,
		// so the reactive victim choice is unchanged.
		better := func(t, pick *task.Task) bool {
			if t.Migrations != pick.Migrations {
				return t.Migrations < pick.Migrations
			}
			if b.predActive {
				tm, tok := b.tracker.ThreadMean(t.ID)
				pm, pok := b.tracker.ThreadMean(pick.ID)
				if tok && pok && tm != pm {
					return tm < pm
				}
			}
			return pick.State == task.Running && t.State != task.Running
		}
		pick := cands[0]
		for _, t := range cands[1:] {
			if better(t, pick) {
				pick = t
			}
		}
		return pick
	}
}
