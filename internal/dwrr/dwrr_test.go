package dwrr_test

import (
	"repro/internal/cpuset"
	"testing"
	"time"

	"repro/internal/dwrr"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
)

func newDWRR(n int, seed uint64) (*sim.Machine, *dwrr.Global) {
	factory, g := dwrr.NewFactory()
	m := sim.New(topo.SMP(n), sim.Config{Seed: seed, NewScheduler: factory})
	return m, g
}

// The paper's fairness example: three CPU-bound threads on two cores
// under DWRR make near-equal progress (~66% each), unlike queue-length
// balancing's 50/50/100 split.
func TestThreeOnTwoFairness(t *testing.T) {
	m, _ := newDWRR(2, 1)
	var tasks []*task.Task
	for i := 0; i < 3; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		m.Start(tk)
		tasks = append(tasks, tk)
	}
	m.RunFor(10 * time.Second)
	m.Sync()
	var min, max time.Duration
	for i, tk := range tasks {
		if i == 0 || tk.ExecTime < min {
			min = tk.ExecTime
		}
		if i == 0 || tk.ExecTime > max {
			max = tk.ExecTime
		}
	}
	// Perfect fairness would be 6.67s each; the simplified round
	// balancing drifts by a few round slices over the run.
	want := 10 * time.Second * 2 / 3
	if min < want-600*time.Millisecond || max > want+600*time.Millisecond {
		t.Errorf("exec spread [%v, %v], want ≈ %v ± 600ms", min, max, want)
	}
	// Contrast with queue-length stasis, where the doubled-up threads
	// would sit at 5s and the solo thread at 10s.
	if min < 5500*time.Millisecond {
		t.Errorf("min exec %v: a thread is starved as under queue-length balancing", min)
	}
	if m.Stats.Migrations["dwrr"] == 0 {
		t.Error("round balancing performed no steals")
	}
}

// Round numbers of busy cores stay within one of each other (the DWRR
// invariant), checked throughout a run.
func TestRoundSpreadInvariant(t *testing.T) {
	m, g := newDWRR(4, 2)
	for i := 0; i < 9; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		m.Start(tk)
	}
	for i := 0; i < 100; i++ {
		m.RunFor(50 * time.Millisecond)
		if spread := g.MaxRoundSpread(); spread > 1 {
			t.Fatalf("round spread %d > 1 at t=%v", spread, time.Duration(m.Now()))
		}
	}
}

// Priorities: a nice -5 task receives proportionally more CPU under
// DWRR's weighted round slices.
func TestWeightedRounds(t *testing.T) {
	m, _ := newDWRR(1, 3)
	hi := m.NewTask("hi", &task.ComputeForever{Chunk: 1e9})
	hi.Nice = -5
	hi.Sched.Weight = task.NiceWeight(-5)
	lo := m.NewTask("lo", &task.ComputeForever{Chunk: 1e9})
	m.Start(hi)
	m.Start(lo)
	m.RunFor(30 * time.Second)
	m.Sync()
	ratio := float64(hi.ExecTime) / float64(lo.ExecTime)
	want := float64(task.NiceWeight(-5)) / float64(task.NiceWeight(0))
	if ratio < want*0.85 || ratio > want*1.15 {
		t.Errorf("exec ratio %.2f, want ≈ %.2f", ratio, want)
	}
}

// Steals respect affinity.
func TestStealRespectsAffinity(t *testing.T) {
	m, _ := newDWRR(2, 4)
	pinned := m.NewTask("pinned", &task.ComputeForever{Chunk: 1e9})
	pinned.Affinity = cpuset.Of(0)
	m.StartOn(pinned, 0)
	other := m.NewTask("other", &task.ComputeForever{Chunk: 1e9})
	other.Affinity = cpuset.Of(0)
	m.StartOn(other, 0)
	// Core 1 idles and will try to steal; both tasks are pinned to 0.
	m.RunFor(2 * time.Second)
	if pinned.CoreID != 0 || other.CoreID != 0 {
		t.Errorf("pinned tasks moved: cores %d %d", pinned.CoreID, other.CoreID)
	}
}

// Sleeping tasks rejoin the current round on wake and the system stays
// consistent.
func TestSleepWakeConsistency(t *testing.T) {
	m, _ := newDWRR(2, 5)
	sleeper := m.NewTask("sleeper", &task.Loop{
		Iterations: 50,
		Body:       []task.Action{task.Compute(5e6), task.Sleep(20 * time.Millisecond)},
	})
	hog := m.NewTask("hog", &task.ComputeForever{Chunk: 1e9})
	m.Start(sleeper)
	m.Start(hog)
	m.Run(int64(time.Minute))
	if sleeper.State != task.Done {
		t.Errorf("sleeper state %v, want done", sleeper.State)
	}
	// The sleeper computed 50×5ms = 250ms total.
	if sleeper.ExecTime != 250*time.Millisecond {
		t.Errorf("sleeper exec %v, want 250ms", sleeper.ExecTime)
	}
}

// DWRR migrates far more than speed balancing on the same imbalanced
// workload — the paper's critique of its migration volume ("the
// algorithm might migrate a large number of threads").
func TestMigrationVolume(t *testing.T) {
	m, _ := newDWRR(2, 6)
	for i := 0; i < 3; i++ {
		tk := m.NewTask("t", &task.Seq{Actions: []task.Action{task.Compute(3e9)}})
		m.Start(tk)
	}
	m.Run(int64(time.Minute))
	// 3 threads × 3 s at 2/3 speed ≈ 4.5 s; one steal per round (100 ms)
	// gives dozens of migrations — far above speedbal's one per two
	// 100 ms intervals.
	if n := m.Stats.Migrations["dwrr"]; n < 20 {
		t.Errorf("steals = %d, want ≥ 20 (DWRR migrates aggressively)", n)
	}
}

// A task that sleeps across round boundaries must wake with a fresh
// round budget: whatever RoundUsed it carries was spent in a round that
// has already closed while it slept. Before the reset in Enqueue, such
// a sleeper woke pre-charged (here 95 of 100 ms), computed only the
// 5 ms remainder, and then sat in the expired queue for the hog's whole
// remaining round — an extra ~100 ms of latency on every wake cycle,
// which this end-to-end bound catches.
func TestWakeAcrossRoundsGetsFreshBudget(t *testing.T) {
	factory, _ := dwrr.NewFactory()
	m := sim.New(topo.SMP(1), sim.Config{Seed: 31, NewScheduler: factory})
	hog := m.NewTask("hog", &task.ComputeForever{Chunk: 1e9})
	m.Start(hog)
	const iters = 20
	sleeper := m.NewTask("sleeper", &task.Loop{
		Iterations: iters,
		Body:       []task.Action{task.Compute(95e6), task.Sleep(300 * time.Millisecond)},
	})
	m.Start(sleeper)
	m.Run(int64(time.Minute))
	if sleeper.State != task.Done {
		t.Fatalf("sleeper state %v, want done", sleeper.State)
	}
	// Each cycle is the 95 ms compute, run in one round slice, plus the
	// 300 ms sleep, during which the hog takes three full slices: 400 ms.
	// The stale-budget bug adds an expired-queue wait of up to a full
	// round per cycle on top (9.8 s in all).
	elapsed := time.Duration(sleeper.FinishedAt - sleeper.StartedAt)
	t.Logf("sleeper finished in %v", elapsed)
	if elapsed > iters*450*time.Millisecond {
		t.Errorf("sleeper took %v for %d cycles — woke pre-charged with a stale round budget?", elapsed, iters)
	}
}
