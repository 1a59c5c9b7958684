package sim_test

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cfs"
	"repro/internal/competing"
	"repro/internal/cpuset"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/ule"
)

// quickCfg builds a quick.Check config with n iterations, scaled down
// under the race detector and -short so the property tests fit the
// default package timeout on small hosts.
func quickCfg(n int) *quick.Config {
	if raceEnabled || testing.Short() {
		n /= 8
		if n < 4 {
			n = 4
		}
	}
	return &quick.Config{MaxCount: n}
}

// Property: for arbitrary small workloads under arbitrary balancer
// combinations, global invariants hold: every app finishes, total exec
// never exceeds cores × elapsed, work counters equal the work specified,
// and no task ends outside its affinity.
func TestPropertyGlobalInvariants(t *testing.T) {
	f := func(seed uint64, threadsRaw, coresRaw, itersRaw, balRaw uint8) bool {
		cores := int(coresRaw%7) + 2 // 2..8
		threads := int(threadsRaw%12) + 1
		iters := int(itersRaw%8) + 1
		policy := []task.WaitPolicy{
			task.WaitSpin, task.WaitYield, task.WaitPollSleep, task.WaitBlock,
		}[int(balRaw>>4)%4]

		m := sim.New(topo.SMP(cores), sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
		log := sim.LogTasks(m)
		switch balRaw % 3 {
		case 0:
			m.AddActor(linuxlb.Default())
		case 1:
			m.AddActor(ule.Default())
		}
		const work = 2e6
		app := spmd.Build(m, spmd.Spec{
			Name: "app", Threads: threads, Iterations: iters,
			WorkPerIteration: work,
			Model:            spmd.Model{Policy: policy, Blocktime: 3 * time.Millisecond},
		})
		if balRaw%3 == 2 {
			sb := speedbal.Default()
			sb.Launch(m, app)
		} else {
			app.Start()
		}
		end := m.Run(int64(time.Hour))
		if !app.Done() {
			return false
		}
		m.Sync()
		if len(log.Tasks) != threads {
			return false
		}
		var total time.Duration
		for _, tk := range log.Tasks {
			total += tk.ExecTime
			if tk.Group == app.Spec.Name {
				if tk.WorkDone != float64(iters)*work {
					return false
				}
				if !tk.Affinity.Has(tk.CoreID) {
					return false
				}
			}
		}
		return total <= time.Duration(end)*time.Duration(cores)
	}
	if err := quick.Check(f, quickCfg(120)); err != nil {
		t.Error(err)
	}
}

// Property: determinism holds under every balancer kind — identical
// seeds give identical elapsed times and migration counts.
func TestPropertyDeterminismAcrossBalancers(t *testing.T) {
	run := func(seed uint64, kind int) (int64, int) {
		m := sim.New(topo.Tigerton(), sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
		switch kind {
		case 0:
			m.AddActor(linuxlb.Default())
		case 1:
			m.AddActor(ule.Default())
		}
		app := spmd.Build(m, spmd.Spec{
			Name: "app", Threads: 9, Iterations: 10, WorkPerIteration: 3e6,
			WorkJitter: 0.2, Model: spmd.UPC(),
		})
		var sb *speedbal.Balancer
		if kind == 2 {
			sb = speedbal.Default()
			sb.Launch(m, app)
		} else {
			app.Start()
		}
		m.Run(int64(time.Hour))
		migs := 0
		for _, tk := range app.Tasks {
			migs += tk.Migrations
		}
		return int64(app.Elapsed()), migs
	}
	f := func(seed uint64, kindRaw uint8) bool {
		kind := int(kindRaw % 3)
		e1, m1 := run(seed, kind)
		e2, m2 := run(seed, kind)
		return e1 == e2 && m1 == m2
	}
	if err := quick.Check(f, quickCfg(40)); err != nil {
		t.Error(err)
	}
}

// A mixed pressure-cooker scenario: two SPMD apps (one speed-balanced,
// one OS-balanced), a make -j, a hog and an interactive task coexist;
// everything completes and the speed balancer touches only its app.
func TestMixedWorkloadIsolation(t *testing.T) {
	var pulls pullLog
	m := sim.New(topo.Tigerton(), sim.Config{Seed: 99, NewScheduler: cfs.Factory(), Tracer: &pulls})
	m.AddActor(linuxlb.Default())
	competing.CPUHog(m, 3)
	m.AddActor(&competing.MakeJ{Width: 3, Duration: 2 * time.Second})
	m.AddActor(&competing.Interactive{})

	managed := spmd.Build(m, spmd.Spec{
		Name: "managed", Threads: 12, Iterations: 5, WorkPerIteration: 40e6,
		Model: spmd.UPC(),
	})
	other := spmd.Build(m, spmd.Spec{
		Name: "other", Threads: 6, Iterations: 5, WorkPerIteration: 40e6,
		Model: spmd.UPCSleep(),
	})
	sb := speedbal.Default()
	sb.Launch(m, managed)
	other.Start()

	m.Run(int64(time.Minute))
	if !managed.Done() || !other.Done() {
		t.Fatalf("apps done: managed=%v other=%v", managed.Done(), other.Done())
	}
	own := map[int]bool{}
	for _, tk := range managed.Tasks {
		own[tk.ID] = true
	}
	for _, e := range pulls {
		if !own[e.Task] {
			t.Errorf("speed balancer moved %q, not a managed task", e.TaskName)
		}
	}
}

// pullLog is a tracer that keeps the speed balancer's pull decisions.
type pullLog []trace.Event

func (l *pullLog) Emit(e trace.Event) {
	if e.Kind == trace.KindBalancePull || e.Kind == trace.KindPredictMigrate {
		*l = append(*l, e)
	}
}

// Nice values interact correctly with balancing: a low-priority app
// sharing with a normal one gets the weight-proportional share under
// plain CFS, and speed balancing of the normal app does not starve it.
func TestNiceIsolationUnderSpeedBalancing(t *testing.T) {
	m := sim.New(topo.SMP(4), sim.Config{Seed: 5, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())
	bg := spmd.Build(m, spmd.Spec{
		Name: "bg", Threads: 4, Iterations: 1, WorkPerIteration: 500e6,
		Model: spmd.UPC(), Nice: 10,
	})
	fg := spmd.Build(m, spmd.Spec{
		Name: "fg", Threads: 6, Iterations: 1, WorkPerIteration: 500e6,
		Model: spmd.UPC(),
	})
	bg.StartPinned()
	sb := speedbal.Default()
	sb.Launch(m, fg)
	m.Run(int64(time.Minute))
	if !fg.Done() {
		t.Fatal("foreground app unfinished")
	}
	m.RunFor(10 * time.Second)
	if !bg.Done() {
		t.Error("background app starved")
	}
}

// Timer.Stop cancels a scheduled timer.
func TestCancelEvent(t *testing.T) {
	m := newSMP(t, 1, 1)
	fired := false
	tm := m.NewTimer(func(int64) { fired = true })
	tm.ScheduleAfter(time.Millisecond)
	tm.Stop()
	m.RunFor(10 * time.Millisecond)
	if fired {
		t.Error("cancelled event fired")
	}
}

// RoundRobinPlacer wraps over the affinity set.
func TestRoundRobinPlacer(t *testing.T) {
	m := newSMP(t, 4, 1)
	m.SetPlacer(&sim.RoundRobinPlacer{})
	var got []int
	for i := 0; i < 6; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		tk.Affinity = cpuset.Of(1, 3)
		m.Start(tk)
		got = append(got, tk.CoreID)
	}
	want := []int{1, 3, 1, 3, 1, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("placements %v, want %v", got, want)
		}
	}
}

// Migrating a sleeping task re-homes it: it wakes on the new core.
func TestMigrateSleepingTask(t *testing.T) {
	m := newSMP(t, 2, 1)
	tk := m.NewTask("t", &task.Seq{Actions: []task.Action{
		task.Compute(1e6),
		task.Sleep(20 * time.Millisecond),
		task.Compute(1e6),
	}})
	m.StartOn(tk, 0)
	m.RunFor(5 * time.Millisecond) // now sleeping
	if tk.State != task.Sleeping {
		t.Fatalf("state %v, want sleeping", tk.State)
	}
	m.Migrate(tk, 1, "test")
	m.RunFor(100 * time.Millisecond)
	if tk.State != task.Done {
		t.Fatalf("state %v, want done", tk.State)
	}
	if tk.CoreID != 1 {
		t.Errorf("finished on core %d, want 1", tk.CoreID)
	}
}
