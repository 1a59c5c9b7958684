package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/dwrr"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/ule"
)

// shardCfg builds a CFS machine config with the given shard settings.
func shardCfg(seed uint64, shards int, par bool) sim.Config {
	return sim.Config{
		Seed:          seed,
		NewScheduler:  cfs.Factory(),
		Shards:        shards,
		ShardParallel: par,
	}
}

// fingerprint reduces a finished machine to every externally observable
// quantity: per-task accounting of every task in log (the run's tasks,
// exited ones included), per-core utilisation, machine stats.
func fingerprint(m *sim.Machine, log *sim.TaskLog) string {
	s := fmt.Sprintf("now=%d ev=%d cs=%d wk=%d mig=%d live=%d\n",
		m.Now(), m.Stats.Events, m.Stats.ContextSwitches, m.Stats.Wakeups,
		m.Stats.TotalMigrations(), m.LiveTasks())
	for _, t := range log.Tasks {
		s += fmt.Sprintf("task %d %s exec=%d work=%.9g mig=%d fin=%d core=%d st=%v\n",
			t.ID, t.Name, t.ExecTime, t.WorkDone, t.Migrations, t.FinishedAt, t.CoreID, t.State)
	}
	for _, c := range m.Cores {
		s += fmt.Sprintf("core %d busy=%d idle=%d stolen=%d\n",
			c.ID(), c.BusyTime, c.IdleTime(), c.StolenTime)
	}
	return s
}

// socketApps builds one pinned SPMD app per socket — a shard-contained
// workload: every task's affinity is a single core and every barrier
// couples tasks of one socket only.
func socketApps(m *sim.Machine, model spmd.Model, iters int) []*spmd.App {
	perSocket := map[int]cpuset.Set{}
	for _, ci := range m.Topo.Cores {
		perSocket[ci.Socket] = perSocket[ci.Socket].Add(ci.ID)
	}
	var apps []*spmd.App
	for s := 0; s < len(perSocket); s++ {
		app := spmd.Build(m, spmd.Spec{
			Name:             fmt.Sprintf("app%d", s),
			Threads:          perSocket[s].Count(),
			Iterations:       iters,
			WorkPerIteration: float64(300 * time.Microsecond),
			WorkJitter:       0.3,
			MemIntensity:     0.4,
			RSSBytes:         1 << 20,
			Model:            model,
			Affinity:         perSocket[s],
		})
		apps = append(apps, app)
	}
	for _, a := range apps {
		a.StartPinned()
	}
	return apps
}

// TestShardCountInvariance is the core refactor guarantee: the shard
// partition must not change one bit of any simulation result. Three
// cross-socket workloads run bit-identically at every shard count:
//   - CFS with full-machine affinity, sleeps, barriers and migrations
//     off the default placer;
//   - DWRR, whose round balancing steals from every queue on the
//     machine;
//   - ULE under hotplug churn, whose drains and re-placements move tasks
//     between shards.
func TestShardCountInvariance(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(shards int) (string, int)
	}{
		{"cfs", cfsCrossSocket},
		{"dwrr", dwrrCrossSocket},
		{"ule-hotplug", uleHotplugCrossSocket},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, events := c.run(1)
			if events == 0 {
				t.Fatal("the workload never exercised the mechanism under test")
			}
			for _, shards := range []int{2, 4} {
				if got, _ := c.run(shards); got != want {
					t.Errorf("shards=%d diverged from shards=1:\n%s", shards, diffLines(want, got))
				}
			}
		})
	}
}

// cfsCrossSocket runs two full-machine CFS apps on Tigerton and returns
// the run's fingerprint and wakeups.
func cfsCrossSocket(shards int) (string, int) {
	m := sim.New(topo.Tigerton(), shardCfg(7, shards, false))
	log := sim.LogTasks(m)
	app := spmd.Build(m, spmd.Spec{
		Name: "a", Threads: 24, Iterations: 6,
		WorkPerIteration: float64(200 * time.Microsecond),
		WorkJitter:       0.5, MemIntensity: 0.5,
		Model: spmd.UPCSleep(),
	})
	app.Start()
	// A second app with sleep phases keeps wake timers hopping
	// between cores (and hence shards) via the idle placer.
	b := spmd.Build(m, spmd.Spec{
		Name: "b", Threads: 8, Iterations: 4,
		WorkPerIteration: float64(150 * time.Microsecond),
		Model:            spmd.OpenMPDefault(),
	})
	b.Start()
	m.Run(int64(50 * time.Millisecond))
	return fingerprint(m, log), m.Stats.Wakeups
}

// dwrrCrossSocket oversubscribes Tigerton under DWRR for several
// 100 ms rounds and returns the run's fingerprint and round-balancing
// steals.
func dwrrCrossSocket(shards int) (string, int) {
	cfg := shardCfg(17, shards, false)
	cfg.NewScheduler, _ = dwrr.NewFactory()
	m := sim.New(topo.Tigerton(), cfg)
	log := sim.LogTasks(m)
	app := spmd.Build(m, spmd.Spec{
		Name: "a", Threads: 20, Iterations: 8,
		WorkPerIteration: float64(30 * time.Millisecond),
		WorkJitter:       0.4, MemIntensity: 0.3,
		Model: spmd.UPCSleep(),
	})
	app.Start()
	m.Run(int64(600 * time.Millisecond))
	return fingerprint(m, log), m.Stats.Migrations["dwrr"]
}

// uleHotplugCrossSocket runs an oversubscribed app under the ULE
// balancer while cores go offline and come back, and returns the run's
// fingerprint and injected unplugs.
func uleHotplugCrossSocket(shards int) (string, int) {
	m := sim.New(topo.Tigerton(), shardCfg(29, shards, false))
	log := sim.LogTasks(m)
	m.AddActor(ule.Default())
	in := perturb.New(perturb.Config{Hotplug: perturb.HotplugConfig{
		Interval: 40 * time.Millisecond, OffTime: 25 * time.Millisecond,
		Jitter: 0.5, MaxOffline: 2,
	}})
	m.AddActor(in)
	app := spmd.Build(m, spmd.Spec{
		Name: "a", Threads: 20, Iterations: 40,
		WorkPerIteration: float64(15 * time.Millisecond),
		WorkJitter:       0.4,
		Model:            spmd.OpenMPDefault(),
	})
	app.Start()
	m.Run(int64(2 * time.Second))
	return fingerprint(m, log), in.Hotplugs
}

// TestParallelWindowInvariance proves the headline property: with a
// shard-contained workload, running shards on parallel goroutines
// between sync horizons produces bit-identical results to the
// sequential event loop.
func TestParallelWindowInvariance(t *testing.T) {
	models := []spmd.Model{spmd.UPCSleep(), spmd.OpenMPDefault(), spmd.OpenMPInfinite()}
	for _, model := range models {
		model := model
		t.Run(model.Name, func(t *testing.T) {
			run := func(shards int, par bool) string {
				m := sim.New(topo.Fabric(4, 4), shardCfg(11, shards, par))
				log := sim.LogTasks(m)
				socketApps(m, model, 8)
				m.Run(int64(40 * time.Millisecond))
				return fingerprint(m, log)
			}
			want := run(1, false)
			for _, c := range []struct {
				shards int
				par    bool
			}{{2, false}, {4, false}, {2, true}, {4, true}} {
				if got := run(c.shards, c.par); got != want {
					t.Errorf("shards=%d parallel=%v diverged:\n%s",
						c.shards, c.par, diffLines(want, got))
				}
			}
		})
	}
}

// hog returns a program that computes forever in fixed chunks.
func hog(chunk time.Duration) task.Program {
	return &task.ComputeForever{Chunk: float64(chunk)}
}

// TestParallelWindowsActuallyOpen guards against the fast path silently
// never engaging: the shard-contained fabric workload must spend most of
// its events inside windows.
func TestParallelWindowsActuallyOpen(t *testing.T) {
	m := sim.New(topo.Fabric(4, 4), shardCfg(11, 4, true))
	socketApps(m, spmd.UPCSleep(), 8)
	m.Run(int64(40 * time.Millisecond))
	if m.Windows() == 0 {
		t.Fatal("no parallel window ever opened for a shard-contained workload")
	}
	if m.WindowEvents() == 0 {
		t.Fatal("windows opened but processed no events")
	}
	if frac := float64(m.WindowEvents()) / float64(m.Stats.Events); frac < 0.5 {
		t.Errorf("only %.0f%% of events ran inside windows; want a majority", 100*frac)
	}
}

// TestWindowBlockedByWideAffinity: a single task whose affinity spans
// shards must keep every window closed (it could be woken or migrated
// across shards at any moment).
func TestWindowBlockedByWideAffinity(t *testing.T) {
	m := sim.New(topo.Fabric(4, 4), shardCfg(11, 4, true))
	socketApps(m, spmd.UPCSleep(), 4)
	wide := m.NewTask("wide", hog(time.Millisecond))
	m.Start(wide) // full-machine affinity
	m.Run(int64(10 * time.Millisecond))
	if m.Windows() != 0 {
		t.Errorf("%d windows opened despite a machine-wide task", m.Windows())
	}
}

// TestSleepTimerFollowsShard: a task that sleeps, migrates across
// sockets while asleep (balancer-style Migrate on a sleeping task), and
// wakes must still wake: its timer stays on the source shard's queue and
// the wake enqueues on the destination.
func TestSleepTimerFollowsShard(t *testing.T) {
	m := sim.New(topo.Tigerton(), shardCfg(3, 4, false))
	tk := m.NewTask("sleeper", &task.Seq{Actions: []task.Action{
		task.Compute(float64(100 * time.Microsecond)),
		task.Sleep(5 * time.Millisecond),
		task.Compute(float64(100 * time.Microsecond)),
		task.Sleep(5 * time.Millisecond),
		task.Compute(float64(100 * time.Microsecond)),
	}})
	m.StartOn(tk, 0)
	// Let it reach its first sleep, then move it to the last socket.
	m.RunFor(time.Millisecond)
	if tk.State != task.Sleeping {
		t.Fatalf("state = %v, want sleeping", tk.State)
	}
	m.Migrate(tk, 15, "test")
	m.RunFor(30 * time.Millisecond)
	if tk.State != task.Done {
		t.Fatalf("state = %v, want done (task stalled after cross-shard sleep migration)", tk.State)
	}
	if tk.CoreID != 15 {
		t.Errorf("finished on core %d, want 15", tk.CoreID)
	}
}

// TestSimultaneousMigrationsIntoShard: several tasks migrated in the
// same event into one destination core must all arrive, preempt
// correctly and make progress — and identically at any shard count.
func TestSimultaneousMigrationsIntoShard(t *testing.T) {
	run := func(shards int) string {
		m := sim.New(topo.Tigerton(), shardCfg(5, shards, false))
		log := sim.LogTasks(m)
		var tasks []*task.Task
		for i := 0; i < 6; i++ {
			tk := m.NewTask(fmt.Sprintf("w%d", i), hog(500*time.Microsecond))
			tasks = append(tasks, tk)
			m.StartOn(tk, i) // spread over sockets 0 and 1
		}
		m.NewTimer(func(now int64) {
			for _, tk := range tasks {
				if tk.CoreID != 12 {
					m.MigrateNow(tk, 12, "test") // all into socket 3
				}
			}
		}).ScheduleAfter(2 * time.Millisecond)
		m.Run(int64(20 * time.Millisecond))
		return fingerprint(m, log)
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d diverged:\n%s", shards, diffLines(want, got))
		}
	}
}

// TestMigrationAtSyncHorizon: a global event that migrates a task out of
// a shard at the exact time of pending shard events must order
// identically at any shard count (the horizon event and the shard events
// carry the same timestamp).
func TestMigrationAtSyncHorizon(t *testing.T) {
	run := func(shards int) string {
		m := sim.New(topo.Tigerton(), shardCfg(9, shards, false))
		log := sim.LogTasks(m)
		tk := m.NewTask("mover", hog(time.Millisecond))
		m.StartOn(tk, 0)
		other := m.NewTask("peer", hog(time.Millisecond))
		m.StartOn(other, 1)
		// The mover's slice events land at multiples of its slice; fire
		// the migration exactly at one of them.
		m.NewTimer(func(now int64) {
			m.MigrateNow(tk, 14, "test")
		}).ScheduleAfter(6 * time.Millisecond)
		m.Run(int64(15 * time.Millisecond))
		return fingerprint(m, log)
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d diverged:\n%s", shards, diffLines(want, got))
		}
	}
}

// TestHotplugMidMigrationSharded extends the PR 5 hotplug suite across
// shards: unplug a core while a sleeping task is mid-migration toward
// it; the wake must be redirected to an online core, identically at any
// shard count.
func TestHotplugMidMigrationSharded(t *testing.T) {
	run := func(shards int) string {
		m := sim.New(topo.Tigerton(), shardCfg(13, shards, false))
		log := sim.LogTasks(m)
		tk := m.NewTask("victim", &task.Seq{Actions: []task.Action{
			task.Compute(float64(100 * time.Microsecond)),
			task.Sleep(4 * time.Millisecond),
			task.Compute(float64(300 * time.Microsecond)),
		}})
		m.StartOn(tk, 2)
		filler := m.NewTask("filler", hog(time.Millisecond))
		m.StartOn(filler, 13)
		m.NewTimer(func(now int64) {
			m.Migrate(tk, 13, "test") // sleeping: just re-homes the wake
		}).ScheduleAfter(time.Millisecond)
		m.NewTimer(func(now int64) {
			m.SetCoreOnline(13, false) // destination vanishes pre-wake
		}).ScheduleAfter(2 * time.Millisecond)
		m.Run(int64(20 * time.Millisecond))
		if tk.State != task.Done {
			t.Fatalf("victim state = %v, want done", tk.State)
		}
		if !m.Cores[13].Online() && tk.CoreID == 13 {
			t.Fatalf("victim finished on the offline core")
		}
		return fingerprint(m, log)
	}
	want := run(1)
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d diverged:\n%s", shards, diffLines(want, got))
		}
	}
}

// TestWindowTripwires: machine-global actions inside a parallel window
// must panic rather than corrupt state.
func TestWindowTripwires(t *testing.T) {
	m := sim.New(topo.Fabric(2, 2), shardCfg(1, 2, true))
	// One long-running pinned task per socket so a window opens.
	for s := 0; s < 2; s++ {
		tk := m.NewTask(fmt.Sprintf("w%d", s), hog(time.Millisecond))
		tk.Affinity = cpuset.Of(2 * s)
		m.StartOn(tk, 2*s)
	}
	var recovered any
	// Core timers are shard-local, so this callback fires inside the
	// window; Sync is machine-wide and must trip.
	m.NewCoreTimer(0, func(now int64) {
		defer func() { recovered = recover() }()
		m.Sync()
	}).ScheduleAfter(time.Millisecond)
	m.Run(int64(5 * time.Millisecond))
	if m.Windows() == 0 {
		t.Fatal("no window opened; tripwire not exercised")
	}
	if recovered == nil {
		t.Error("machine-wide Sync inside a window did not panic")
	}
}

// diffLines renders the first divergent line of two fingerprints.
func diffLines(want, got string) string {
	w, g := []byte(want), []byte(got)
	n := len(w)
	if len(g) < n {
		n = len(g)
	}
	for i := 0; i < n; i++ {
		if w[i] != g[i] {
			lo := i - 80
			if lo < 0 {
				lo = 0
			}
			hiW, hiG := i+120, i+120
			if hiW > len(w) {
				hiW = len(w)
			}
			if hiG > len(g) {
				hiG = len(g)
			}
			return fmt.Sprintf("want ...%s...\n got ...%s...", w[lo:hiW], g[lo:hiG])
		}
	}
	return fmt.Sprintf("lengths differ: want %d bytes, got %d", len(w), len(g))
}
