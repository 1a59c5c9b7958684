package speedbal_test

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
)

func newMachine(seed uint64) *sim.Machine {
	return sim.New(topo.SMP(2), sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
}

// threeOnTwo is a barrier-per-iteration SPMD app on two cores.
func threeOnTwo(iters int, work float64) spmd.Spec {
	return spmd.Spec{
		Name: "app", Threads: 3, Iterations: iters, WorkPerIteration: work,
		Model: spmd.UPC(), Affinity: cpuset.All(2),
	}
}

// epThreeOnTwo is an EP-style app: one long compute phase per thread and
// a single final (yield-waiting) barrier — the structure of the paper's
// headline Figure 3 benchmark ("uses negligible memory, no
// synchronization").
func epThreeOnTwo(work float64) spmd.Spec {
	return spmd.Spec{
		Name: "app", Threads: 3, Iterations: 1, WorkPerIteration: work,
		Model: spmd.UPC(), Affinity: cpuset.All(2),
	}
}

// The paper's §1 example with an EP workload: three threads on two
// cores. Queue-length balancing leaves the 2+1 split static — and the
// final yield-waiting barrier keeps the queues occupied, so new-idle
// balancing never fires — capping the app at the slowest thread's 50%
// speed (elapsed ≈ 2W). Speed balancing rotates threads so every thread
// averages 2/3 speed, approaching the ideal 1.5W (§4: "the application
// perceives the system as running at 66% speed").
func TestEPThreeThreadsTwoCores(t *testing.T) {
	const work = 2e9 // 2 s per thread
	ideal := time.Duration(1.5 * work)

	// LOAD: Linux balancer only.
	mLoad := newMachine(1)
	mLoad.AddActor(linuxlb.Default())
	appLoad := spmd.Build(mLoad, epThreeOnTwo(work))
	appLoad.Start()
	mLoad.Run(int64(time.Hour))
	if !appLoad.Done() {
		t.Fatal("LOAD app did not finish")
	}

	// SPEED: speedbalancer manages the app (Linux balancer still runs
	// for unrelated tasks).
	mSpeed := newMachine(1)
	mSpeed.AddActor(linuxlb.Default())
	appSpeed := spmd.Build(mSpeed, epThreeOnTwo(work))
	sb := speedbal.Default()
	sb.Launch(mSpeed, appSpeed)
	mSpeed.Run(int64(time.Hour))
	if !appSpeed.Done() {
		t.Fatal("SPEED app did not finish")
	}

	loadT, speedT := appLoad.Elapsed(), appSpeed.Elapsed()
	t.Logf("ideal %v, SPEED %v, LOAD %v, migrations %d", ideal, speedT, loadT, sb.Migrations)

	// LOAD stays near 2× the per-thread serial time.
	if loadT < time.Duration(1.85*work) {
		t.Errorf("LOAD elapsed %v suspiciously fast; want ≈ %v", loadT, time.Duration(2*work))
	}
	// SPEED must be well below LOAD and within 15% of ideal.
	if speedT >= loadT {
		t.Errorf("SPEED %v not faster than LOAD %v", speedT, loadT)
	}
	if float64(speedT) > 1.15*float64(ideal) {
		t.Errorf("SPEED %v more than 15%% over ideal %v", speedT, ideal)
	}
	if sb.Migrations == 0 {
		t.Error("speed balancer performed no migrations")
	}
}

// Lemma 1's flip side: with fine-grained barriers (S ≪ B) the lockstep
// iteration time is pinned at 2S by the slowest thread and rare
// migrations cannot help — speed balancing provides "the same
// performance as the Linux default" (§4's negative qualifier).
func TestLemma1FineGrainParity(t *testing.T) {
	const iters, work = 400, 2e6 // S = 2 ms ≪ B = 100 ms
	mLoad := newMachine(2)
	mLoad.AddActor(linuxlb.Default())
	appLoad := spmd.Build(mLoad, threeOnTwo(iters, work))
	appLoad.Start()
	mLoad.Run(int64(time.Hour))

	mSpeed := newMachine(2)
	appSpeed := spmd.Build(mSpeed, threeOnTwo(iters, work))
	sb := speedbal.Default()
	sb.Launch(mSpeed, appSpeed)
	mSpeed.Run(int64(time.Hour))

	if !appLoad.Done() || !appSpeed.Done() {
		t.Fatal("apps did not finish")
	}
	ratio := float64(appSpeed.Elapsed()) / float64(appLoad.Elapsed())
	t.Logf("SPEED/LOAD = %.3f (SPEED %v, LOAD %v)", ratio, appSpeed.Elapsed(), appLoad.Elapsed())
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("fine-grain SPEED/LOAD = %.3f, want ≈ 1 (Lemma 1 threshold not met)", ratio)
	}
}

// Lemma 1's profitable regime: coarse barriers (S well above the
// 2·ceil(SQ/FQ)·B threshold) let mid-iteration migrations move queued
// work onto the waiting core, beating queue-length balancing.
func TestLemma1CoarseGrainBenefit(t *testing.T) {
	const iters, work = 8, 1e9 // S = 1 s ≫ threshold 2×2×100 ms = 0.4 s
	mLoad := newMachine(2)
	mLoad.AddActor(linuxlb.Default())
	appLoad := spmd.Build(mLoad, threeOnTwo(iters, work))
	appLoad.Start()
	mLoad.Run(int64(time.Hour))

	mSpeed := newMachine(2)
	appSpeed := spmd.Build(mSpeed, threeOnTwo(iters, work))
	sb := speedbal.Default()
	sb.Launch(mSpeed, appSpeed)
	mSpeed.Run(int64(time.Hour))

	if !appLoad.Done() || !appSpeed.Done() {
		t.Fatal("apps did not finish")
	}
	ratio := float64(appSpeed.Elapsed()) / float64(appLoad.Elapsed())
	t.Logf("SPEED/LOAD = %.3f (SPEED %v, LOAD %v, %d migrations)",
		ratio, appSpeed.Elapsed(), appLoad.Elapsed(), sb.Migrations)
	if ratio > 0.92 {
		t.Errorf("coarse-grain SPEED/LOAD = %.3f, want notable improvement (< 0.92)", ratio)
	}
}

// Necessity condition (§4): every thread must run on a fast core at
// least once. With speed balancing each of the three threads should
// receive a nontrivial share of CPU — no thread starves at exactly 1/2
// while others get 1.
func TestSpeedBalancingEqualisesThreadSpeeds(t *testing.T) {
	m := newMachine(3)
	app := spmd.Build(m, epThreeOnTwo(3e9))
	sb := speedbal.Default()
	sb.Launch(m, app)
	m.Run(int64(time.Hour))
	if !app.Done() {
		t.Fatal("app did not finish")
	}
	// All threads compute the same total work, so equal finish times ⇒
	// equal average speeds. Check exec-time spread: spin/yield overhead
	// aside, exec times should be within ~20% of each other.
	var min, max time.Duration
	for i, tk := range app.Tasks {
		if i == 0 || tk.ExecTime < min {
			min = tk.ExecTime
		}
		if i == 0 || tk.ExecTime > max {
			max = tk.ExecTime
		}
	}
	if float64(max) > 1.5*float64(min) {
		t.Errorf("thread exec spread too wide: min %v max %v", min, max)
	}
}

// The post-migration block: cores involved in a migration must not
// migrate again within two balance intervals. We assert the aggregate
// migration rate is bounded by one per (block interval / cores).
func TestMigrationRateBounded(t *testing.T) {
	const iters = 500
	const work = 5e6
	m := newMachine(7)
	app := spmd.Build(m, threeOnTwo(iters, work))
	cfg := speedbal.DefaultConfig()
	sb := speedbal.New(cfg)
	sb.Launch(m, app)
	m.Run(int64(time.Hour))
	if !app.Done() {
		t.Fatal("app did not finish")
	}
	elapsed := app.Elapsed()
	// With 2 cores and a 2-interval block, each migration blocks both
	// cores, so the global rate is at most one per 2 intervals (plus
	// jitter slack).
	maxRate := float64(elapsed)/float64(2*cfg.Interval) + 2
	if float64(sb.Migrations) > maxRate {
		t.Errorf("migrations %d exceed bound %.0f over %v", sb.Migrations, maxRate, elapsed)
	}
}

// Dedicated one-per-core apps must not be disturbed: with equal speeds
// everywhere, the threshold test (s_k/s_global < 0.9) suppresses
// migrations despite measurement noise.
func TestNoSpuriousMigrationsWhenBalanced(t *testing.T) {
	m := newMachine(11)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 2, Iterations: 200, WorkPerIteration: 5e6,
		Model: spmd.UPC(), Affinity: cpuset.All(2),
	})
	sb := speedbal.Default()
	sb.Launch(m, app)
	m.Run(int64(time.Hour))
	if !app.Done() {
		t.Fatal("app did not finish")
	}
	if sb.Migrations != 0 {
		t.Errorf("got %d spurious migrations on a perfectly balanced app", sb.Migrations)
	}
}

// Speed balancing respects NUMA blocking: on Barcelona with BlockNUMA,
// no migration crosses nodes.
func TestNUMABlocking(t *testing.T) {
	m := sim.New(topo.Barcelona(), sim.Config{Seed: 5, NewScheduler: cfs.Factory()})
	// 6 threads restricted to cores {0,1} (node 0) ∪ {4,5} (node 1):
	// an uneven 2-2-1-1 spread would tempt cross-node pulls.
	aff := cpuset.Of(0, 1, 4, 5)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 6, Iterations: 100, WorkPerIteration: 10e6,
		Model: spmd.UPC(), Affinity: aff,
	})
	sb := speedbal.Default()
	sb.Launch(m, app)

	type move struct{ from, to int }
	var moves []move
	// Track migrations via task state sampling after the run.
	m.Run(int64(time.Hour))
	if !app.Done() {
		t.Fatal("app did not finish")
	}
	_ = moves
	// All threads must finish on the node they started on: with
	// round-robin over {0,1,4,5}, threads 0,1,4,5 start on node 0 or 1
	// and BlockNUMA forbids leaving it.
	for i, tk := range app.Tasks {
		startCore := aff.Cores()[i%4]
		startNode := m.Topo.Cores[startCore].Node
		endNode := m.Topo.Cores[tk.CoreID].Node
		if startNode != endNode {
			t.Errorf("thread %d crossed NUMA nodes: %d → %d", i, startNode, endNode)
		}
	}
}

// The balancer must never violate the managed set: it only moves its
// own application's threads.
func TestOnlyManagedThreadsMoved(t *testing.T) {
	m := newMachine(9)
	m.AddActor(linuxlb.Default())
	hog := m.NewTask("hog", &task.ComputeForever{Chunk: 1e8})
	hog.Affinity = cpuset.Of(0)
	m.StartOn(hog, 0)

	app := spmd.Build(m, threeOnTwo(100, 5e6))
	sb := speedbal.Default()
	sb.Launch(m, app)
	m.Run(int64(30 * time.Second))
	if hog.Migrations != 0 {
		t.Errorf("unmanaged pinned hog migrated %d times", hog.Migrations)
	}
}

// Hotplug: unplug a core mid-run under speed balancing. The balancer
// must never pull work toward the offline core, must not lose the
// drained threads, and must re-adopt the core after replug (its
// post-replug balancer wakes see an idle core and pull work back).
func TestHotplugUnplugReplug(t *testing.T) {
	m := sim.New(topo.SMP(4), sim.Config{Seed: 9, NewScheduler: cfs.Factory()})
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 4, Iterations: 1, WorkPerIteration: 2e9,
		Model: spmd.UPC(), Affinity: cpuset.All(4),
	})
	cfg := speedbal.DefaultConfig()
	sb := speedbal.New(cfg)

	const unplugAt = 200 * time.Millisecond
	const replugAt = 500 * time.Millisecond
	var badPulls int
	sb.OnMigrate = func(tk *task.Task, from, to int, now int64) {
		if to == 3 && now >= int64(unplugAt) && now < int64(replugAt) {
			badPulls++
		}
	}
	sb.Launch(m, app)
	var busyAtReplug time.Duration
	m.After(unplugAt, func(int64) { m.SetCoreOnline(3, false) })
	m.After(replugAt, func(int64) {
		busyAtReplug = m.Cores[3].BusyTime
		m.SetCoreOnline(3, true)
	})
	m.Run(int64(time.Hour))
	m.Sync()
	if !app.Done() {
		t.Fatal("app did not finish across unplug/replug")
	}
	for _, tk := range app.Tasks {
		if tk.State != task.Done {
			t.Errorf("thread %q lost in state %v", tk.Name, tk.State)
		}
	}
	if badPulls > 0 {
		t.Errorf("%d pulls targeted the offline core", badPulls)
	}
	// The doubled-up core runs at half speed after the drain; once core
	// 3 returns, its balancer thread must notice the idle core and pull
	// a thread back rather than leaving the 2-1-1-0 split in place.
	if sb.Migrations == 0 {
		t.Errorf("no migrations at all — the replugged core was never rebalanced")
	}
	if got := m.Cores[3].BusyTime; got <= busyAtReplug {
		t.Errorf("core 3 busy time did not grow after replug (at replug %v, final %v)", busyAtReplug, got)
	}
}

// Regression (PR 8): a rescan-group balancer whose machine fully drained
// must wake again when a new group member is admitted. Before the
// admission hook, the wake timers died at the drain (correctly — an
// empty machine must not be polled forever) but nothing restarted them,
// so an open-system arrival into the idle machine was never adopted or
// balanced.
func TestAdmissionIntoDrainedMachineRearms(t *testing.T) {
	m := newMachine(21)
	sb := speedbal.New(speedbal.Config{RescanGroup: "dyn"})
	m.AddActor(sb)

	first := m.NewTask("dyn.0", &task.Seq{Actions: []task.Action{task.Compute(300e6)}})
	first.Group = "dyn"
	m.Start(first)

	// Admit the second batch well after the machine drained and every
	// wake timer gave up: three threads into two cores, the §1 imbalance
	// the balancer exists to fix.
	var second []*task.Task
	m.After(3*time.Second, func(int64) {
		for i := 0; i < 3; i++ {
			tk := m.NewTask("dyn.late", &task.Seq{Actions: []task.Action{task.Compute(500e6)}})
			tk.Group = "dyn"
			second = append(second, tk)
			m.StartOn(tk, i%2)
		}
	})
	m.Run(int64(time.Hour))

	if first.State != task.Done {
		t.Fatalf("first task in state %v", first.State)
	}
	for i, tk := range second {
		if tk.State != task.Done {
			t.Errorf("late task %d in state %v, want done", i, tk.State)
		}
	}
	// Adoption happens only inside a balancer wake; 4 adoptions prove the
	// loop restarted after the drain.
	if sb.Adopted != 4 {
		t.Errorf("adopted %d tasks, want 4 (wake loop never re-armed?)", sb.Adopted)
	}
}

// Regression (PR 8): a fixed-set balancer finishes its batch, drains its
// wake loop, and is then handed a second batch via Manage mid-run. The
// re-Manage (and the admission hook behind it) must restart the loop —
// the imbalanced second batch gets no migrations otherwise.
func TestManageAfterAllDoneRearms(t *testing.T) {
	m := newMachine(23)
	app1 := spmd.Build(m, spmd.Spec{
		Name: "batch1", Threads: 2, Iterations: 1, WorkPerIteration: 200e6,
		Model: spmd.UPC(), Affinity: cpuset.All(2),
	})
	sb := speedbal.Default()
	sb.Launch(m, app1)

	var app2 *spmd.App
	m.After(3*time.Second, func(int64) {
		app2 = spmd.Build(m, epThreeOnTwo(2e9))
		app2.StartPinned()
		sb.Manage(m, app2.Tasks, cpuset.All(2))
	})
	m.Run(int64(time.Hour))

	if !app1.Done() {
		t.Fatal("first batch did not finish")
	}
	if app2 == nil || !app2.Done() {
		t.Fatal("second batch did not finish")
	}
	// The 3-on-2 EP batch needs pulls to equalise thread speeds; zero
	// migrations means no balancer thread ever woke for it.
	if sb.Migrations == 0 {
		t.Error("no migrations for the mid-run batch — wake loop never re-armed")
	}
	// And the balancing must actually have helped: elapsed near the 1.5W
	// ideal, not the 2W static split.
	if el := app2.Elapsed(); float64(el) > 1.3*1.5e9*2 {
		t.Errorf("second batch elapsed %v, want well under the 2W static split", el)
	}
}
