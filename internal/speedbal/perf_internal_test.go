// White-box tests for the balancer's incremental bookkeeping: the
// per-core membership lists, the speed-accounting purge on task exit,
// and the rescan wake loop's termination. They live in the package so
// they can compare the incremental state against a from-scratch scan.
package speedbal

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
)

// checkMembers verifies members[j] holds exactly the live managed
// threads with CoreID == cores[j], in rank (managed) order — the
// invariant that lets sample and pickVictim skip the full-managed scan.
func checkMembers(t *testing.T, b *Balancer) {
	t.Helper()
	for j, core := range b.cores {
		var want []*task.Task
		for _, tk := range b.managed {
			if tk.State != task.Done && tk.CoreID == core {
				want = append(want, tk)
			}
		}
		got := b.members[j]
		if len(got) != len(want) {
			t.Fatalf("core %d: members %v, want %v", core, names(got), names(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("core %d: members %v, want %v (order)", core, names(got), names(want))
			}
		}
	}
}

func names(ts []*task.Task) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

// Membership lists stay consistent with t.CoreID under heavy migration
// from both balancers at once: the managed threads are left unpinned, so
// the Linux balancer moves them too, and every move must flow through
// the core-change hook.
func TestMembershipConsistencyUnderChurn(t *testing.T) {
	m := sim.New(topo.SMP(4), sim.Config{Seed: 31, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())

	var tasks []*task.Task
	for i := 0; i < 12; i++ {
		var acts []task.Action
		// Heterogeneous lifetimes: threads exit at different times, so
		// queue-length imbalances recur across the whole run and both
		// balancers keep moving threads.
		for k := 0; k < 4+2*i; k++ {
			acts = append(acts, task.Compute(1.5e8))
			if i%2 == 0 {
				// Half the threads sleep between bursts, creating idle
				// cores and new-idle pulls.
				acts = append(acts, task.Sleep(20*time.Millisecond))
			}
		}
		tk := m.NewTask(fmt.Sprintf("churn.%d", i), &task.Seq{Actions: acts})
		tasks = append(tasks, tk)
		// Cram everything onto two of the four cores so both balancers
		// have migrations to perform.
		m.StartOn(tk, i%2)
	}

	cfg := DefaultConfig()
	cfg.BlockNUMA = false
	b := New(cfg)
	b.Manage(m, tasks, cpuset.All(4))
	m.AddActor(b)

	for step := 0; step < 200; step++ {
		m.RunFor(50 * time.Millisecond)
		checkMembers(t, b)
	}
	if mig := m.Stats.TotalMigrations(); mig < 20 {
		t.Errorf("only %d migrations — churn too light to exercise the lists", mig)
	}
	if b.liveManaged != 0 {
		t.Errorf("liveManaged = %d after all threads finished", b.liveManaged)
	}
}

// The speed-accounting maps are purged as threads exit, and the rescan
// wake loop stops once the machine drains: after a churny dynamic-group
// run both maps are empty and no event remains queued.
func TestAccountingPurgeAndDrain(t *testing.T) {
	m := sim.New(topo.SMP(2), sim.Config{Seed: 37, NewScheduler: cfs.Factory()})
	cfg := DefaultConfig()
	cfg.RescanGroup = "dyn"
	b := New(cfg)
	m.AddActor(b)

	// Three waves of short-lived group members, each spawned by a timer
	// so the rescan has to discover them.
	spawn := func(i int) {
		tk := m.NewTask(fmt.Sprintf("dyn.%d", i), &task.Seq{Actions: []task.Action{
			task.Compute(6e8),
		}})
		tk.Group = "dyn"
		m.StartOn(tk, i%2)
	}
	for i := 0; i < 6; i++ {
		i := i
		m.After(time.Duration(i)*400*time.Millisecond, func(int64) { spawn(i) })
	}

	// Run generously past the workload's end: before the drain fix the
	// rescan wake loop rescheduled itself forever, so a wake would still
	// be queued at any horizon.
	m.Run(int64(time.Hour))
	if b.Adopted != 6 {
		t.Errorf("adopted %d threads, want 6", b.Adopted)
	}
	if m.LiveTasks() != 0 {
		t.Errorf("%d live tasks after drain", m.LiveTasks())
	}
	if n := m.PendingEvents(); n != 0 {
		t.Errorf("%d events still queued after the machine drained", n)
	}
	if len(b.lastExec) != 0 {
		t.Errorf("lastExec holds %d entries after all threads exited", len(b.lastExec))
	}
	if len(b.lastWork) != 0 {
		t.Errorf("lastWork holds %d entries after all threads exited", len(b.lastWork))
	}
	if b.liveManaged != 0 {
		t.Errorf("liveManaged = %d, want 0", b.liveManaged)
	}
}

// A zero-length sample window must not consume the window: the next
// wake has to measure across the whole elapsed interval rather than
// publish a stale speed. sampled[j] may only advance when wall > 0.
func TestZeroWallSampleKeepsWindowOpen(t *testing.T) {
	m := sim.New(topo.SMP(2), sim.Config{Seed: 41, NewScheduler: cfs.Factory()})
	tk := m.NewTask("app.0", &task.Seq{Actions: []task.Action{task.Compute(1e9)}})
	b := New(DefaultConfig())
	b.Manage(m, []*task.Task{tk}, cpuset.All(2))
	m.AddActor(b)
	m.StartOn(tk, 0)
	m.RunFor(250 * time.Millisecond)

	before := b.sampled[0]
	if before == 0 {
		t.Fatal("core 0 never sampled during warmup")
	}
	b.sample(0, before) // wall == 0
	if b.sampled[0] != before {
		t.Errorf("zero-wall sample advanced sampled[0] from %d to %d", before, b.sampled[0])
	}
	speed := b.speeds[0]
	b.sample(0, before-1) // wall < 0 (defensive)
	if b.sampled[0] != before || b.speeds[0] != speed {
		t.Error("negative-wall sample mutated balancer state")
	}
}

// With tracing off, a steady-state balance interval of barrier-free
// threads allocates nothing. Before the membership lists and reusable
// wake timers it allocated per wake (a closure and Queued() slices);
// this fails if any allocation returns to the wake path.
func TestWakeAllocationsBounded(t *testing.T) {
	m := sim.New(topo.SMP(2), sim.Config{Seed: 43, NewScheduler: cfs.Factory()})
	var tasks []*task.Task
	for i := 0; i < 6; i++ {
		tk := m.NewTask(fmt.Sprintf("app.%d", i), &task.Seq{Actions: []task.Action{
			task.Compute(1e12),
		}})
		tasks = append(tasks, tk)
		m.StartOn(tk, i%2)
	}
	b := New(DefaultConfig())
	b.Manage(m, tasks, cpuset.All(2))
	m.AddActor(b)
	m.RunFor(2 * time.Second) // settle

	avg := testing.AllocsPerRun(20, func() {
		m.RunFor(100 * time.Millisecond)
	})
	t.Logf("allocs per balance interval: %v", avg)
	if avg != 0 {
		t.Errorf("steady-state interval allocates %v times, want 0", avg)
	}
}
