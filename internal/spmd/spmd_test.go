package spmd_test

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
)

func newSMP(n int, seed uint64) *sim.Machine {
	return sim.New(topo.SMP(n), sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
}

// All threads cross every barrier generation together.
func TestBarrierGenerations(t *testing.T) {
	m := newSMP(4, 1)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 4, Iterations: 7, WorkPerIteration: 1e6,
		Model: spmd.Model{Policy: task.WaitBlock},
	})
	app.Start()
	m.Run(int64(time.Second))
	if !app.Done() {
		t.Fatal("app not done")
	}
	if app.Barrier.Crossings != 7 {
		t.Errorf("crossings = %d, want 7", app.Barrier.Crossings)
	}
	if app.Barrier.Waiting() != 0 {
		t.Errorf("%d waiters left after completion", app.Barrier.Waiting())
	}
}

// Each wait policy completes the same workload with identical crossings.
func TestAllWaitPoliciesComplete(t *testing.T) {
	for _, p := range []task.WaitPolicy{
		task.WaitSpin, task.WaitYield, task.WaitPollSleep,
		task.WaitBlock, task.WaitSpinThenBlock,
	} {
		m := newSMP(2, 3)
		app := spmd.Build(m, spmd.Spec{
			Name: "app", Threads: 5, Iterations: 20, WorkPerIteration: 2e6,
			Model: spmd.Model{Policy: p, Blocktime: 3 * time.Millisecond},
		})
		app.Start()
		m.Run(int64(time.Minute))
		if !app.Done() {
			t.Errorf("policy %v: app did not finish", p)
			continue
		}
		if app.Barrier.Crossings != 20 {
			t.Errorf("policy %v: crossings %d", p, app.Barrier.Crossings)
		}
	}
}

// Spin-then-block transitions to sleep after the blocktime: with one
// thread stuck computing behind another, the early arriver's exec time
// is bounded by work + blocktime (it sleeps afterwards).
func TestSpinThenBlockStopsBurning(t *testing.T) {
	m := newSMP(2, 1)
	// Thread 0 on core 0 computes 1 ms per iteration; thread 1 shares
	// core 1 with a hog, so it computes at half speed.
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 2, Iterations: 1, WorkPerIteration: 50e6,
		Model: spmd.Model{Policy: task.WaitSpinThenBlock, Blocktime: 5 * time.Millisecond},
	})
	hog := m.NewTask("hog", &task.ComputeForever{Chunk: 1e9})
	hog.Affinity = cpuset.Of(1)
	m.StartOn(hog, 1)
	app.Tasks[0].Affinity = cpuset.Of(0)
	app.Tasks[1].Affinity = cpuset.Of(1)
	m.StartOn(app.Tasks[0], 0)
	m.StartOn(app.Tasks[1], 1)
	m.Run(int64(time.Minute))
	if !app.Done() {
		t.Fatal("app not done")
	}
	// Thread 0 finishes at 50 ms, spins 5 ms, then blocks until thread
	// 1 finishes at ~100 ms.
	want := 55 * time.Millisecond
	if got := app.Tasks[0].ExecTime; got < want || got > want+2*time.Millisecond {
		t.Errorf("early arriver exec %v, want ≈ %v (work+blocktime)", got, want)
	}
}

// Counter is one-shot: satisfied forever after n arrivals.
func TestCounter(t *testing.T) {
	m := newSMP(1, 1)
	c := spmd.NewCounter(2)
	done := 0
	mk := func(name string) *task.Task {
		prog := &task.Seq{Actions: []task.Action{
			task.Compute(1e6),
			task.WaitFor(c, task.WaitBlock, 0),
			task.Compute(1e6),
		}}
		tk := m.NewTask(name, prog)
		return tk
	}
	a, b := mk("a"), mk("b")
	m.OnTaskDone(func(*task.Task) { done++ })
	m.Start(a)
	m.Start(b)
	m.Run(int64(time.Second))
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	// Late arrivals pass immediately.
	late := mk("late")
	m.Start(late)
	m.Run(int64(2 * time.Second))
	if late.State != task.Done {
		t.Error("late arriver blocked on satisfied counter")
	}
}

// Speedup accounting: a perfectly parallel app on n cores has speedup n.
func TestSpeedupAccounting(t *testing.T) {
	m := newSMP(4, 2)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 4, Iterations: 10, WorkPerIteration: 5e6,
		Model: spmd.Model{Policy: task.WaitBlock},
	})
	app.StartPinned()
	m.Run(int64(time.Minute))
	if !app.Done() {
		t.Fatal("app not done")
	}
	if sp := app.Speedup(); sp < 3.95 || sp > 4.001 {
		t.Errorf("speedup %v, want ≈ 4", sp)
	}
	if sw := app.SerialWork(); sw != 200*time.Millisecond {
		t.Errorf("serial work %v, want 200ms", sw)
	}
}

// StartPinned distributes round-robin over the affinity set and pins.
func TestStartPinnedPlacement(t *testing.T) {
	m := newSMP(4, 2)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 6, Iterations: 1, WorkPerIteration: 1e6,
		Model:    spmd.UPC(),
		Affinity: cpuset.Of(1, 3),
	})
	app.StartPinned()
	wantCores := []int{1, 3, 1, 3, 1, 3}
	for i, tk := range app.Tasks {
		if tk.CoreID != wantCores[i] {
			t.Errorf("thread %d on core %d, want %d", i, tk.CoreID, wantCores[i])
		}
		if !tk.Pinned() {
			t.Errorf("thread %d not pinned", i)
		}
	}
}

// WorkJitter stays within the configured bounds and total serial work is
// unchanged in expectation (loose check).
func TestWorkJitterBounds(t *testing.T) {
	m := newSMP(1, 5)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 1, Iterations: 200, WorkPerIteration: 1e6,
		WorkJitter: 0.25, Model: spmd.Model{Policy: task.WaitBlock},
	})
	app.Start()
	m.Run(int64(time.Minute))
	if !app.Done() {
		t.Fatal("app not done")
	}
	// Total exec must be within ±25% of nominal even in the worst case,
	// and within a few % for 200 samples.
	nominal := 200 * time.Millisecond
	got := app.Tasks[0].ExecTime
	if got < nominal*90/100 || got > nominal*110/100 {
		t.Errorf("jittered total %v too far from nominal %v", got, nominal)
	}
}

// Model presets carry the documented policies.
func TestModelPresets(t *testing.T) {
	cases := []struct {
		m    spmd.Model
		want task.WaitPolicy
	}{
		{spmd.UPC(), task.WaitYield},
		{spmd.UPCSleep(), task.WaitPollSleep},
		{spmd.MPI(), task.WaitYield},
		{spmd.OpenMPDefault(), task.WaitSpinThenBlock},
		{spmd.OpenMPInfinite(), task.WaitSpin},
	}
	for _, c := range cases {
		if c.m.Policy != c.want {
			t.Errorf("%s policy = %v, want %v", c.m.Name, c.m.Policy, c.want)
		}
	}
	if bt := spmd.OpenMPDefault().Blocktime; bt != 200*time.Millisecond {
		t.Errorf("KMP_BLOCKTIME default = %v, want 200ms", bt)
	}
}

// OnDone fires exactly once, when the last thread exits.
func TestOnDoneFiresOnce(t *testing.T) {
	m := newSMP(2, 9)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 3, Iterations: 2, WorkPerIteration: 1e6,
		Model: spmd.UPC(),
	})
	fired := 0
	app.OnDone(func(*spmd.App) { fired++ })
	app.Start()
	m.Run(int64(time.Minute))
	if fired != 1 {
		t.Errorf("OnDone fired %d times", fired)
	}
}

// Stepping an SPMD worker through its whole job — compute, barrier,
// compute, ..., exit — allocates nothing: the program returns plain
// Action values.
func TestWorkerSteppingAllocatesNothing(t *testing.T) {
	const runs, iters = 50, 8
	m := newSMP(4, 1)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: runs + 1, Iterations: iters,
		WorkPerIteration: 1e6, WorkJitter: 0.1, Model: spmd.UPC(),
	})
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		tk := app.Tasks[next]
		next++
		var steps int
		for ; tk.Prog.Next(tk, 0).Kind != task.ActExit; steps++ {
			if steps > 2*iters {
				t.Fatal("worker does not exit")
			}
		}
		if steps != 2*iters {
			t.Fatalf("worker took %d steps, want %d", steps, 2*iters)
		}
	})
	if n != 0 {
		t.Errorf("%v allocs per worker job, want 0", n)
	}
}
