package linuxlb_test

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
)

func newMachine(tp *topo.Topology, seed uint64) (*sim.Machine, *linuxlb.Balancer) {
	m := sim.New(tp, sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
	b := linuxlb.Default()
	m.AddActor(b)
	return m, b
}

func hogs(m *sim.Machine, n int, core int) []*task.Task {
	var out []*task.Task
	for i := 0; i < n; i++ {
		t := m.NewTask("hog", &task.ComputeForever{Chunk: 1e9})
		if core >= 0 {
			m.StartOn(t, core)
		} else {
			m.Start(t)
		}
		out = append(out, t)
	}
	return out
}

func queueLens(m *sim.Machine) []int {
	out := make([]int, len(m.Cores))
	for i, c := range m.Cores {
		out[i] = c.NrRunnable()
	}
	return out
}

// The paper's central critique: a 3-vs-2 (or 2-vs-1) split is "balanced"
// under integer queue-length arithmetic and is never corrected.
func TestIntegerStasisTwoVsOne(t *testing.T) {
	m, _ := newMachine(topo.SMP(2), 1)
	ts := hogs(m, 3, 0) // all three on core 0
	m.RunFor(5 * time.Second)
	lens := queueLens(m)
	if !(lens[0] == 2 && lens[1] == 1 || lens[0] == 1 && lens[1] == 2) {
		t.Fatalf("queues %v, want a 2/1 split", lens)
	}
	// The split must then be static: run on and re-check.
	migsBefore := ts[0].Migrations + ts[1].Migrations + ts[2].Migrations
	m.RunFor(5 * time.Second)
	migsAfter := ts[0].Migrations + ts[1].Migrations + ts[2].Migrations
	if migsAfter != migsBefore {
		t.Errorf("migrations continued on a 2/1 split: %d -> %d", migsBefore, migsAfter)
	}
}

// A 3-vs-1 split is correctable (moving one task improves balance).
func TestThreeVsOneCorrected(t *testing.T) {
	m, _ := newMachine(topo.SMP(2), 2)
	hogs(m, 4, 0)
	m.RunFor(5 * time.Second)
	lens := queueLens(m)
	if lens[0] != 2 || lens[1] != 2 {
		t.Errorf("queues %v, want 2/2", lens)
	}
}

// Sixteen tasks forked together spread to one per core.
func TestSpreadSixteen(t *testing.T) {
	m, _ := newMachine(topo.Tigerton(), 3)
	hogs(m, 16, -1) // placed via the (stale) OS placer
	m.RunFor(5 * time.Second)
	for i, l := range queueLens(m) {
		if l != 1 {
			t.Errorf("core %d queue %d, want 1 (got %v)", i, l, queueLens(m))
			break
		}
	}
}

// Stale fork placement: tasks started between ticks all see the same
// snapshot and clump; with accurate placement they spread immediately.
func TestStalePlacementClumps(t *testing.T) {
	m, _ := newMachine(topo.SMP(4), 4)
	m.RunFor(50 * time.Millisecond) // let ticks initialise snapshots
	var placed []int
	for i := 0; i < 4; i++ {
		tk := m.NewTask("t", &task.ComputeForever{Chunk: 1e9})
		m.Start(tk)
		placed = append(placed, tk.CoreID)
	}
	same := 0
	for _, c := range placed {
		if c == placed[0] {
			same++
		}
	}
	if same != 4 {
		t.Errorf("simultaneous forks placed on %v, want all clumped", placed)
	}
}

// New-idle balancing: when a core empties, it immediately pulls from a
// loaded queue rather than waiting for the periodic balancer.
func TestNewIdlePull(t *testing.T) {
	m, b := newMachine(topo.SMP(2), 5)
	// A short-lived task on core 1 plus two hogs on core 0.
	short := m.NewTask("short", &task.Seq{Actions: []task.Action{task.Compute(30e6)}})
	m.StartOn(short, 1)
	h := m.NewTask("hog1", &task.ComputeForever{Chunk: 1e9})
	m.StartOn(h, 0)
	h2 := m.NewTask("hog2", &task.ComputeForever{Chunk: 1e9})
	m.StartOn(h2, 0)
	m.RunFor(10 * time.Millisecond) // before the short task ends
	lens := queueLens(m)
	if lens[0] != 2 {
		t.Skip("periodic balancing already intervened; scenario void")
	}
	m.RunFor(40 * time.Millisecond) // short ends at 30 ms: core 1 idles
	if got := queueLens(m); got[0] != 1 || got[1] != 1 {
		t.Errorf("queues %v after idle, want 1/1", got)
	}
	if b.NewIdlePulls == 0 {
		t.Error("no new-idle pulls recorded")
	}
}

// The balancer never violates affinity masks.
func TestAffinityRespected(t *testing.T) {
	m, _ := newMachine(topo.SMP(4), 6)
	var pinned []*task.Task
	for i := 0; i < 6; i++ {
		tk := m.NewTask("pinned", &task.ComputeForever{Chunk: 1e9})
		tk.Affinity = cpuset.Of(0, 1)
		m.Start(tk)
		pinned = append(pinned, tk)
	}
	m.RunFor(5 * time.Second)
	for _, tk := range pinned {
		if tk.CoreID > 1 {
			t.Errorf("task on core %d outside affinity {0,1}", tk.CoreID)
		}
	}
}

// The balancer never migrates the running task through the normal path
// (only the active-balance migration thread may move it).
func TestRunningTaskOnlyMovedByActiveBalance(t *testing.T) {
	m, b := newMachine(topo.SMP(2), 7)
	hogs(m, 3, 0)
	m.RunFor(2 * time.Second)
	// Any moves the normal path made must have been of queued tasks —
	// this is enforced by sim.Migrate panicking on running tasks, so
	// surviving the run is the assertion; count activity for sanity.
	if b.Pulls+b.NewIdlePulls == 0 {
		t.Error("balancer made no pulls at all")
	}
}

// Yield-waiters count as load: queue lengths include them, so a core
// full of waiters attracts no tasks (the LOAD-YIELD pathology).
func TestYieldWaitersCountAsLoad(t *testing.T) {
	m, _ := newMachine(topo.SMP(2), 8)
	// A yield-waiter parked on core 1 (waiting on a condition that
	// never fires), plus two hogs on core 0.
	never := newNeverCond()
	waiter := m.NewTask("waiter", &task.Seq{Actions: []task.Action{
		task.WaitFor(never, task.WaitYield, 0),
	}})
	m.StartOn(waiter, 1)
	hogs(m, 2, 0)
	m.RunFor(3 * time.Second)
	// 2 vs 1 with the waiter counted: integer stasis, no migration.
	if got := queueLens(m); got[0] != 2 || got[1] != 1 {
		t.Errorf("queues %v, want 2/1 (waiter counts as load)", got)
	}
}

// Block-waiters do NOT count: the same scenario with a blocking waiter
// lets the balancer move a hog over (the LOAD-SLEEP advantage).
func TestBlockWaitersDoNotCountAsLoad(t *testing.T) {
	m, _ := newMachine(topo.SMP(2), 9)
	never := newNeverCond()
	waiter := m.NewTask("waiter", &task.Seq{Actions: []task.Action{
		task.WaitFor(never, task.WaitBlock, 0),
	}})
	m.StartOn(waiter, 1)
	hogs(m, 2, 0)
	m.RunFor(3 * time.Second)
	if got := queueLens(m); got[0] != 1 || got[1] != 1 {
		t.Errorf("queues %v, want 1/1 (blocked waiter is invisible)", got)
	}
}

// neverCond is a condition that never releases.
type neverCond struct{}

func newNeverCond() *neverCond { return &neverCond{} }

func (n *neverCond) Arrive(t *task.Task, w task.Waker) bool { return false }

// An extreme clump disperses across the machine (cache-hot resistance
// escalates, active balance pushes running tasks to idle sockets). A
// residual ±1 imbalance may survive — group-sum integer arithmetic stops
// correcting once sums look balanced, which is exactly the "failure to
// correct initial imbalances" the paper attributes LOAD's erratic EP
// results to.
func TestClumpDispersal(t *testing.T) {
	m, b := newMachine(topo.Tigerton(), 10)
	hogs(m, 8, 0) // extreme clump on core 0
	m.RunFor(2 * time.Second)
	lens := queueLens(m)
	occupied, max := 0, 0
	for _, l := range lens {
		if l > 0 {
			occupied++
		}
		if l > max {
			max = l
		}
	}
	if occupied < 7 {
		t.Errorf("only %d cores occupied after 2s: %v", occupied, lens)
	}
	if max > 2 {
		t.Errorf("a queue still holds %d tasks after 2s: %v", max, lens)
	}
	if b.Pulls+b.NewIdlePulls == 0 {
		t.Error("no pulls during dispersal")
	}
}
