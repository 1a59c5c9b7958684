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
	"cmp"
	"slices"
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

// The balancer's fixed parameters.
const (
	// postMigrationBlock is the number of balance intervals a core
	// involved in a migration is blocked from further migrations
	// (at least 2, §5.2).
	postMigrationBlock = 2
	// accountingGranularity quantises exec-time readings, modelling the
	// tick-granular cputime accounting of the 2.6.28 kernel (a HZ=1000
	// kernel). This is why the paper finds that "using a lower value
	// for the balancing interval might produce inaccurate values for
	// thread speeds" (§6.1): at B close to the tick, Δexec carries a
	// relative error of tick/B.
	accountingGranularity = time.Millisecond
)

// Config tunes the balancer. New completes a zero Interval or Threshold
// with the paper's value.
type Config struct {
	// Interval is the balance interval (100 ms in all the paper's
	// experiments, §5.1).
	Interval time.Duration
	// Threshold is T_s: pull only from cores with
	// s_k/s_global < Threshold (0.9 in the paper, §5.2), which absorbs
	// measurement noise when queues are perfectly balanced.
	Threshold float64
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
	// PullPolicy selects the victim thread (default least-migrated).
	PullPolicy PullPolicy
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
	// predict.MinConfidence, and places admitted group threads on the
	// predicted-fastest core. With Predict.Horizon or Predict.Weight
	// zero the decisions degenerate to the reactive balancer exactly
	// (byte-identical output — pinned by difftest).
	Predict predict.Config
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		Interval:    100 * time.Millisecond,
		Threshold:   0.9,
		BlockNUMA:   true,
		Jitter:      true,
		NoiseStdDev: 0.01,
	}
}

// Balancer is the speedbalancer process managing one application.
type Balancer struct {
	cfg     Config
	m       *sim.Machine // nil until Start
	rng     *xrand.RNG
	stopped bool

	// threads holds one record per live managed thread (the /proc PID
	// scan plus rescan adoptions); a thread's record goes when it exits,
	// so an open run holds records only for its live jobs.
	threads map[*task.Task]*thread
	// ranks is the next adoption rank to hand out.
	ranks int
	// cores is the managed core set (the user-requested cores), one
	// record per core in ID order; a core's position in it is the index
	// j every per-core slice below shares. pos maps a core ID to its
	// position, −1 for unmanaged cores.
	cores []core
	pos   []int

	// speeds[j] is the latest core-speed sample for managed core j — the
	// only state shared between balancer threads (s_global is derived
	// from it).
	speeds []float64
	// scanned is the rescan cursor: every task with a lower ID has been
	// looked at. Machine.Live lists tasks in creation (ID) order and a
	// task's Group is fixed at creation, so each rescan only needs to
	// look at tasks created since the previous one.
	scanned int

	// tracker holds the predictive estimators (nil unless
	// Predict.Enabled); predActive caches Predict.Active() — the gate
	// on every decision the predictor may change.
	tracker    *predict.Tracker
	predActive bool
	// prevPlacer is the fork-placement policy the predictive placer
	// wraps; non-group tasks delegate to it unchanged.
	prevPlacer sim.Placer
	// effBuf, distBuf, idxBuf, boundsBuf, boundsScratch and probOf are
	// the per-balance-pass scratch buffers of the predictive path,
	// preallocated so prediction adds no steady-state allocation.
	// probOf[k] is core k's slowest-probability bound this pass (−1 when
	// unsampled or cold).
	effBuf        []float64
	distBuf       []predict.Dist
	idxBuf        []int
	boundsBuf     []float64
	boundsScratch []float64
	probOf        []float64
	// cands and victims are balance's and pickVictim's candidate lists,
	// kept across passes.
	cands   []pullCand
	victims []*task.Task

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
}

// thread is the balancer's record of one live managed thread.
type thread struct {
	t *task.Task
	// rank is the adoption order; it orders the per-core member lists.
	rank int
	// lastExec is the thread's exec-time reading at its core's last
	// sample; lastWork the work-counter reading (MeasureWorkRate).
	lastExec time.Duration
	lastWork float64
}

// core is one managed core's balancer-thread state.
type core struct {
	id int
	// sampled is when the core's balancer thread last sampled.
	sampled int64
	// lastStolen is the core's steal-time reading (Core.StolenWall, the
	// /proc/stat steal+irq account) at its last sample, so the idle-core
	// speed estimate can discount kernel noise a newcomer would suffer.
	lastStolen time.Duration
	// lastMigration is when the core was last involved in a migration
	// (as source or destination).
	lastMigration int64
	// members holds the live managed threads currently on the core, in
	// rank order. Maintained through the machine's core-change and
	// task-done hooks so sample and balance do O(threads-on-core) work
	// instead of O(all threads).
	members []*thread
	// wake is the core's reusable balancer-wake timer.
	wake *sim.Timer
	// occAtSample is how many runnable tasks shared the core when its
	// speed was last sampled (≥1); the placer multiplies it back out to
	// recover the core's capacity from the per-thread speed, then
	// divides by the live occupancy.
	occAtSample int
	// predSlowest is the core position this balancer thread predicted
	// slowest at its previous pass (−1 none), resolved against the
	// realized slowest for the hit/miss audit.
	predSlowest int
}

// New creates a balancer with cfg; a zero Interval or Threshold takes
// the paper's value.
func New(cfg Config) *Balancer {
	d := DefaultConfig()
	if cfg.Interval == 0 {
		cfg.Interval = d.Interval
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = d.Threshold
	}
	return &Balancer{cfg: cfg, threads: make(map[*task.Task]*thread)}
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
// at what Start saw (the per-core records are built then), and a wake
// loop that drained after the previous batch finished is re-armed.
func (b *Balancer) Manage(m *sim.Machine, threads []*task.Task, cores cpuset.Set) {
	if b.m == nil {
		if cores.Empty() {
			cores = m.Topo.AllCores()
		}
		b.setCores(len(m.Cores), cores)
	}
	for _, t := range threads {
		if _, ok := b.threads[t]; !ok {
			b.addManaged(t)
		}
	}
	if b.m != nil && !b.stopped {
		b.ensureTimers(b.m.Now())
	}
}

// setCores builds the per-core records of the managed core set on a
// machine of n cores.
func (b *Balancer) setCores(n int, set cpuset.Set) {
	b.cores = make([]core, 0, set.Count())
	b.pos = make([]int, n)
	for i := range b.pos {
		b.pos[i] = -1
	}
	for _, id := range set.Cores() {
		b.pos[id] = len(b.cores)
		b.cores = append(b.cores, core{id: id, predSlowest: -1})
	}
}

// addManaged records a live thread at the next rank and, once the
// balancer has started, threads it into its core's member list.
func (b *Balancer) addManaged(t *task.Task) {
	if t.State == task.Done {
		return
	}
	th := &thread{t: t, rank: b.ranks}
	b.ranks++
	b.threads[t] = th
	if b.m == nil || t.CoreID < 0 {
		return // Start, or the thread's first placement, files it
	}
	if j := b.pos[t.CoreID]; j >= 0 {
		// The newest rank sorts last, so this is an append.
		b.cores[j].members = append(b.cores[j].members, th)
	}
}

// Start implements sim.Actor: one balancer thread per managed core.
func (b *Balancer) Start(m *sim.Machine) {
	b.m = m
	b.rng = m.RNG()
	if len(b.cores) == 0 {
		// Rescan-only usage (no explicit Manage): watch every core.
		b.setCores(len(m.Cores), m.Topo.AllCores())
	}
	n := len(b.cores)
	b.speeds = make([]float64, n)
	for j := range b.speeds {
		b.speeds[j] = -1 // unsampled
	}
	// File the threads managed before Start in rank order; those that
	// exited meanwhile are forgotten.
	ths := make([]*thread, 0, len(b.threads))
	for t, th := range b.threads {
		if t.State == task.Done {
			delete(b.threads, t)
			continue
		}
		ths = append(ths, th)
	}
	slices.SortFunc(ths, func(x, y *thread) int { return cmp.Compare(x.rank, y.rank) })
	for _, th := range ths {
		if id := th.t.CoreID; id >= 0 && b.pos[id] >= 0 {
			cs := &b.cores[b.pos[id]]
			cs.members = append(cs.members, th)
		}
	}
	if b.cfg.Predict.Enabled {
		b.tracker = predict.NewTracker(n, b.cfg.Interval)
		b.predActive = b.cfg.Predict.Active()
		b.effBuf = make([]float64, n)
	}
	if b.predActive {
		b.distBuf = make([]predict.Dist, 0, n)
		b.idxBuf = make([]int, 0, n)
		b.boundsBuf = make([]float64, n)
		b.boundsScratch = make([]float64, 2*n)
		b.probOf = make([]float64, n)
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
	// The wake timers sit on the control queue: a balancer thread reads
	// every managed core's speed and may pull from any of them.
	for j := range b.cores {
		cs := &b.cores[j]
		cs.wake = m.NewTimer(func(now int64) { b.wake(j, now) })
		cs.wake.Schedule(m.Now() + int64(b.cfg.Interval) + b.jitter())
	}
}

// noteMove keeps the membership lists consistent with t.CoreID: the
// machine invokes it on first placement and on every migration,
// whichever component moved the task.
func (b *Balancer) noteMove(t *task.Task, from, to int) {
	th, ok := b.threads[t]
	if !ok || t.State == task.Done {
		return
	}
	if from >= 0 && b.pos[from] >= 0 {
		b.removeMember(b.pos[from], th)
	}
	if j := b.pos[to]; j >= 0 {
		b.insertMember(j, th)
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
	if j := b.pos[c.ID()]; j >= 0 {
		b.resetSample(j, b.m.Now())
	}
}

// resetSample drops core j's speed sample and restarts its sample
// window at now.
func (b *Balancer) resetSample(j int, now int64) {
	cs := &b.cores[j]
	b.speeds[j] = -1
	cs.sampled = now
	cs.lastStolen = b.m.Cores[cs.id].StolenWall()
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
	if b.stopped {
		return
	}
	if _, ok := b.threads[t]; !ok {
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
	for j := range b.cores {
		if w := b.cores[j].wake; !w.Pending() {
			w.Schedule(now + int64(b.cfg.Interval) + b.jitter())
		}
	}
}

// noteDone forgets an exited managed thread: its member-list entry, its
// record and its predictor estimator, so churny workloads hold state
// only for their live threads.
func (b *Balancer) noteDone(t *task.Task) {
	th, ok := b.threads[t]
	if !ok {
		return
	}
	if t.CoreID >= 0 && b.pos[t.CoreID] >= 0 {
		b.removeMember(b.pos[t.CoreID], th)
	}
	delete(b.threads, t)
	if b.tracker != nil {
		b.tracker.ForgetThread(t.ID)
	}
}

// insertMember inserts th into core j's member list at its rank
// position, so the list stays in adoption order — the iteration order
// sample and pickVictim depend on for bit-identical results.
func (b *Balancer) insertMember(j int, th *thread) {
	l := b.cores[j].members
	i := sort.Search(len(l), func(i int) bool { return l[i].rank > th.rank })
	l = append(l, nil)
	copy(l[i+1:], l[i:])
	l[i] = th
	b.cores[j].members = l
}

// removeMember deletes th from core j's member list if present.
func (b *Balancer) removeMember(j int, th *thread) {
	l := b.cores[j].members
	for i, o := range l {
		if o == th {
			copy(l[i:], l[i+1:])
			l[len(l)-1] = nil
			b.cores[j].members = l[:len(l)-1]
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
	if len(b.threads) == 0 && b.cfg.RescanGroup == "" {
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
	if b.m.Cores[b.cores[j].id].Online() {
		b.sample(j, now)
		b.balance(j, now)
	} else {
		// The core was hot-unplugged: its threads were drained elsewhere,
		// so there is nothing to measure and pulling work here would be a
		// bug. Keep the thread alive (the real balancer thread would just
		// find itself migrated off the dead core) and keep the sample
		// window fresh for the replug.
		b.resetSample(j, now)
	}
	b.cores[j].wake.Schedule(now + int64(b.cfg.Interval) + b.jitter())
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
	tasks := b.m.Live()
	i := len(tasks)
	for i > 0 && tasks[i-1].ID >= b.scanned {
		i--
	}
	for _, t := range tasks[i:] {
		if t.Group != b.cfg.RescanGroup || t.State == task.Done {
			continue
		}
		if _, ok := b.threads[t]; ok {
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
	if len(tasks) > 0 {
		b.scanned = tasks[len(tasks)-1].ID + 1
	}
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
	for j := range b.cores {
		id := b.cores[j].id
		c := b.m.Cores[id]
		if !c.Online() || !t.Affinity.Has(id) {
			continue
		}
		l := c.NrRunnable()
		if best == -1 || l < bestLoad || (l == bestLoad && id == t.CoreID) {
			best, bestLoad = id, l
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
	for j := range b.cores {
		cs := &b.cores[j]
		c := b.m.Cores[cs.id]
		if !c.Online() || !t.Affinity.Has(cs.id) {
			continue
		}
		cap := c.Info().BaseSpeed
		if b.tracker.CoreWarm(j) {
			cap = b.tracker.Predicted(j, h) * float64(cs.occAtSample)
		}
		s := cap / float64(c.NrRunnable()+1)
		if best == -1 || s > bestScore {
			best, bestScore = cs.id, s
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

// sample computes the local core speed: the average, over the managed
// threads currently on the core, of Δexec/Δwall since this balancer's
// previous sample (steps 1–2 of §5.1).
func (b *Balancer) sample(j int, now int64) {
	cs := &b.cores[j]
	coreID := cs.id
	c := b.m.Cores[coreID]
	c.Sync()
	wall := time.Duration(now - cs.sampled)
	if wall <= 0 {
		// A zero-length window carries no information: leave the window
		// open (do not consume it) so the next wake samples across the
		// whole elapsed interval instead of publishing a stale speed.
		return
	}
	cs.sampled = now
	// Difference the core's steal account over the window: the share of
	// wall time kernel noise took regardless of what ran. Busy cores
	// already see theft through their threads' exec times; the idle-core
	// estimate below needs it read directly.
	stolenNow := c.StolenWall()
	stolenFrac := float64(stolenNow-cs.lastStolen) / float64(wall)
	cs.lastStolen = stolenNow
	if stolenFrac < 0 {
		stolenFrac = 0
	} else if stolenFrac > 1 {
		stolenFrac = 1
	}
	var sum float64
	var cnt int
	for _, th := range cs.members {
		t := th.t
		var s float64
		if b.cfg.Measure == MeasureWorkRate {
			// Performance-counter extension (§7): retired work per
			// wall time. The counter sees contention losses directly.
			d := t.WorkDone - th.lastWork
			th.lastWork = t.WorkDone
			s = d / float64(wall)
		} else {
			// Read exec time the way the taskstats interface reports
			// it: quantised to the accounting tick.
			read := t.ExecTime / accountingGranularity * accountingGranularity
			d := read - th.lastExec
			th.lastExec = read
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
		cs.occAtSample = occ
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

// avgSpeed averages the sampled (non-negative) entries of a speed
// vector — realized or effective. Over the realized speeds it is step 3
// of §5.1, the global core speed.
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
		if e < 0 || !b.tracker.CoreWarm(k) || !b.m.Cores[b.cores[k].id].Online() {
			continue
		}
		b.distBuf = append(b.distBuf, predict.Dist{Mean: e, Std: b.tracker.CoreStd(k)})
		b.idxBuf = append(b.idxBuf, k)
	}
	if len(b.distBuf) > 0 {
		out := predict.SlowestLowerBounds(b.distBuf, b.boundsBuf[:len(b.distBuf)], b.boundsScratch)
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
	if prev := b.cores[j].predSlowest; prev >= 0 {
		arg := -1
		var min float64
		for k, s := range b.speeds {
			if s < 0 || !b.m.Cores[b.cores[k].id].Online() {
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
	b.cores[j].predSlowest = best
	if best >= 0 && reg != nil {
		reg.Histogram("speedbal.predict.slowest_p", probBuckets).Observe(probs[best])
	}
}

// pullCand is one remote core balance may pull from: its index k, the
// speed sk it qualified at, its distance from the local core, and
// whether it qualified only predictively.
type pullCand struct {
	k        int
	sk       float64
	dist     topo.Distance
	predOnly bool
}

// balance is step 4 of §5.1: if the local core is faster than the global
// average, pull one thread from a suitable slower core. With prediction
// active the decision runs on *effective* speeds (realized blended
// toward predicted), and a candidate that qualifies only predictively —
// its realized speed is still above T_s — additionally needs its
// slowest-core probability bound to clear predict.MinConfidence before
// the pull fires as a KindPredictMigrate.
func (b *Balancer) balance(j int, now int64) {
	sj := b.speeds[j]
	if sj < 0 {
		return
	}
	sg := avgSpeed(b.speeds)
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
	local := b.cores[j].id
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
	block := postMigrationBlock * int64(b.cfg.Interval)
	if now-b.cores[j].lastMigration < block {
		if tr {
			b.traceSkip(local, local, "post-migration-block", 0, sg)
		}
		return
	}
	// Collect the suitable remote cores, slowest first; pull from the
	// slowest one that actually holds a migratable managed thread (a
	// core occupied only by unrelated work is slow but has nothing for
	// us to take).
	cands := b.cands[:0]
	for k := range b.cores {
		remote := b.cores[k].id
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
				if conf < predict.MinConfidence {
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
		if now-b.cores[k].lastMigration < block {
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
		cands = append(cands, pullCand{k, sk, d, predOnly})
	}
	b.cands = cands
	// Prefer nearby sources: migrations between cache-sharing cores are
	// orders of magnitude cheaper, which is why §5.2 lets them happen
	// more often ("migrations ... twice as often between cores that
	// share a cache"). Ties break toward the slowest core. k is unique
	// and no NaN speed qualifies, so the order is total.
	slices.SortFunc(cands, func(a, c pullCand) int {
		return cmp.Or(cmp.Compare(a.dist, c.dist), cmp.Compare(a.sk, c.sk), cmp.Compare(a.k, c.k))
	})
	for _, c := range cands {
		victim := b.pickVictim(c.k)
		if victim == nil {
			if tr {
				b.traceSkip(local, b.cores[c.k].id, "no-victim", c.sk, sg)
			}
			continue
		}
		if c.predOnly {
			// Anticipatory pulls never take the swap path: the swap is a
			// remedy for a *realized* one-thread-per-core imbalance, and
			// trading threads on a prediction would double the
			// misprediction cost (two wrong moves instead of one).
			b.pull(j, c.k, victim, nil, "speedbal-predict", now, trace.Event{Kind: trace.KindPredictMigrate,
				SLocal: sjEff, SK: b.speeds[c.k], SPred: c.sk, SGlobal: sgEff})
			b.Migrations++
			b.PredictPulls++
			if reg := b.m.Metrics(); reg != nil {
				reg.Counter("speedbal.predict.pull").Inc()
			}
			return
		}
		ev := trace.Event{Kind: trace.KindBalancePull, SLocal: sj, SK: c.sk, SGlobal: sg}
		if b.cfg.EnableSwaps && len(b.cores[c.k].members) == 1 && len(b.cores[j].members) >= 1 {
			// Pull-only balancing cannot help a one-thread-per-core
			// imbalance (the pull would just double up the local
			// queue): exchange the two threads instead, rotating
			// fast-core time at constant utilisation.
			if give := b.pickVictim(j); give != nil && give != victim {
				b.pull(j, c.k, victim, give, "speedbal-swap", now, ev)
				b.Swaps++
				return
			}
		}
		b.pull(j, c.k, victim, nil, "speedbal", now, ev)
		b.Migrations++
		return
	}
}

// pull commits one balance decision: it records ev, the decision's
// evidence, then re-pins victim from core k to the local core j —
// sched_setaffinity, so the Linux balancer will not touch it afterwards
// (§5.2) — and, for a swap, give from j to k, and starts both cores'
// post-migration block. Both affinities are set before either move: the
// first move can trigger new-idle balancing on the vacated core, which
// must already see give's new pin.
func (b *Balancer) pull(j, k int, victim, give *task.Task, label string, now int64, ev trace.Event) {
	local, remote := b.cores[j].id, b.cores[k].id
	if b.m.Tracing() {
		ev.Core, ev.Task, ev.TaskName = local, victim.ID, victim.Name
		ev.Src, ev.Dst, ev.Threshold = remote, local, b.cfg.Threshold
		b.m.Emit(ev)
	}
	victim.Affinity = cpuset.Of(local)
	if give != nil {
		give.Affinity = cpuset.Of(remote)
	}
	b.m.MigrateNow(victim, local, label)
	if give != nil {
		b.m.MigrateNow(give, remote, label)
	}
	b.cores[j].lastMigration = now
	b.cores[k].lastMigration = now
}

// traceSkip records a balancer decision not to pull. remote == local
// marks a whole-pass skip rather than a per-candidate one (the exporter
// omits the candidate fields in that case).
func (b *Balancer) traceSkip(local, remote int, reason string, sk, sg float64) {
	b.m.Emit(trace.Event{Kind: trace.KindBalanceSkip, Core: local, Src: remote,
		Label: "speedbal", Reason: reason, SK: sk, SGlobal: sg})
}

// pickVictim chooses which managed thread to pull off core k: the
// least-migrated by default.
func (b *Balancer) pickVictim(k int) *task.Task {
	cands := b.victims[:0]
	for _, th := range b.cores[k].members {
		if th.t.State == task.Sleeping || th.t.State == task.Blocked {
			// Re-pinning a sleeper is possible but pointless: its
			// speed contribution is already reflected in co-runners.
			continue
		}
		cands = append(cands, th.t)
	}
	b.victims = cands
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
