package ule_test

import (
	"repro/internal/cpuset"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/ule"
)

func newULE(n int, seed uint64, cfg ule.Config) (*sim.Machine, *ule.Balancer) {
	m := sim.New(topo.SMP(n), sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
	b := ule.New(cfg)
	m.AddActor(b)
	return m, b
}

// Default configuration: a one-task imbalance is left alone ("the ULE
// scheduler will not migrate threads when a static balance is not
// attainable").
func TestDefaultLeavesOneTaskImbalance(t *testing.T) {
	m, b := newULE(2, 1, ule.Config{})
	for i := 0; i < 3; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		m.StartOn(tk, 0)
	}
	// Initial pushes/pulls spread 3-on-0 to 2/1, then stop.
	m.RunFor(5 * time.Second)
	l0, l1 := m.Cores[0].NrRunnable(), m.Cores[1].NrRunnable()
	if l0+l1 != 3 || l0 == 0 || l1 == 0 {
		t.Fatalf("queues %d/%d, want a 2/1 split", l0, l1)
	}
	pushes := b.Pushes
	m.RunFor(5 * time.Second)
	if b.Pushes != pushes {
		t.Errorf("pushes continued on a 2/1 split: %d -> %d", pushes, b.Pushes)
	}
}

// kern.sched.steal_thresh=1 equivalent: MinImbalance 1 lets the push
// balancer move on a one-task difference.
func TestStealThreshOneMigrates(t *testing.T) {
	m, b := newULE(2, 2, ule.Config{MinImbalance: 1, StealThreshold: 1})
	for i := 0; i < 3; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		m.StartOn(tk, 0)
	}
	m.RunFor(5 * time.Second)
	if b.Pushes == 0 {
		t.Error("no pushes despite MinImbalance=1")
	}
}

// Idle pull: an idle core steals from a queue with ≥ StealThreshold.
func TestIdlePull(t *testing.T) {
	m, b := newULE(2, 3, ule.Config{})
	short := m.NewTask("short", &task.Seq{Actions: []task.Action{task.Compute(10e6)}})
	m.StartOn(short, 1)
	for i := 0; i < 2; i++ {
		tk := m.NewTask("hog", &task.ComputeForever{Chunk: 1e9})
		m.StartOn(tk, 0)
	}
	m.RunFor(time.Second)
	if b.Pulls == 0 {
		t.Error("idle core did not pull")
	}
	if l := m.Cores[1].NrRunnable(); l != 1 {
		t.Errorf("core 1 queue %d, want 1 after idle pull", l)
	}
}

// The push period is honoured: pushes happen at ~2/second.
func TestPushPeriod(t *testing.T) {
	// Construct a workload that always has a ≥2 imbalance: 6 tasks
	// pinned... easier: count pushes over time with a perpetually
	// rebuilding clump via affinity release is complex — instead check
	// that pushes are bounded by elapsed/period + 1.
	m, b := newULE(4, 4, ule.Config{})
	for i := 0; i < 8; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		m.StartOn(tk, 0)
	}
	m.RunFor(3 * time.Second)
	maxPushes := int(3*time.Second/ule.DefaultConfig().PushInterval) + 1
	if b.Pushes > maxPushes {
		t.Errorf("pushes %d exceed one per period (max %d)", b.Pushes, maxPushes)
	}
}

// ULE respects affinity.
func TestULEAffinity(t *testing.T) {
	m, _ := newULE(4, 5, ule.Config{MinImbalance: 1, StealThreshold: 1})
	var pinned []*task.Task
	for i := 0; i < 6; i++ {
		tk := m.NewTask("pinned", &task.ComputeForever{Chunk: 1e9})
		tk.Affinity = cpuset.Of(0, 1)
		m.Start(tk)
		pinned = append(pinned, tk)
	}
	m.RunFor(3 * time.Second)
	for _, tk := range pinned {
		if tk.CoreID > 1 {
			t.Errorf("task escaped affinity to core %d", tk.CoreID)
		}
	}
}
