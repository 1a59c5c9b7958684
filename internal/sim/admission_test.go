package sim_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
)

// These tests pin the open-system contract: NewTask + Start are
// machine-global events, so a task admitted mid-run — at a parallel
// window's sync horizon, during hotplug churn, or into a fully drained
// machine — must produce bit-identical results at every shard count and
// window setting.

// admitPinned creates a shard-contained task (single-core affinity, so
// it never blocks parallel windows) and starts it on that core.
func admitPinned(m *sim.Machine, name string, p task.Program, core int) *task.Task {
	tk := m.NewTask(name, p)
	tk.Affinity = cpuset.Of(core)
	m.StartOn(tk, core)
	return tk
}

// shortJob is a finite program: compute, doze, compute — enough to
// exercise wake timers on the admitted task without running forever.
func shortJob(work time.Duration) task.Program {
	return &task.Seq{Actions: []task.Action{
		task.Compute(float64(work)),
		task.Sleep(2 * time.Millisecond),
		task.Compute(float64(work)),
	}}
}

// TestAdmissionAtWindowHorizonSharded: tasks arrive via control-queue
// events while socket-contained apps keep parallel windows open. The
// arrival timestamps force sync horizons; the admitted tasks are
// themselves shard-contained so windows reopen afterwards. Results must
// match the single-queue engine bit for bit — and the parallel
// configuration must actually have opened windows, or the test proves
// nothing.
func TestAdmissionAtWindowHorizonSharded(t *testing.T) {
	run := func(shards int, par bool) (string, int) {
		m := sim.New(topo.Fabric(4, 4), shardCfg(21, shards, par))
		log := sim.LogTasks(m)
		socketApps(m, spmd.UPCSleep(), 8)
		for i, d := range []time.Duration{
			5 * time.Millisecond, 10 * time.Millisecond, 15 * time.Millisecond,
		} {
			i, d := i, d
			m.NewTimer(func(now int64) {
				admitPinned(m, fmt.Sprintf("late%d", i),
					shortJob(300*time.Microsecond), (i*4+1)%16)
			}).ScheduleAfter(d)
		}
		m.Run(int64(40 * time.Millisecond))
		return fingerprint(m, log), m.Windows()
	}
	want, _ := run(1, false)
	for _, c := range []struct {
		shards int
		par    bool
	}{{2, false}, {4, false}, {2, true}, {4, true}} {
		got, windows := run(c.shards, c.par)
		if got != want {
			t.Errorf("shards=%d parallel=%v diverged:\n%s",
				c.shards, c.par, diffLines(want, got))
		}
		if c.par && windows == 0 {
			t.Errorf("shards=%d parallel=%v: no window ever opened; admission-at-horizon path not exercised", c.shards, c.par)
		}
	}
}

// TestAdmissionDuringHotplugChurnSharded: a task is admitted at the
// same timestamp a core on its target socket goes offline, and another
// lands on a core the moment it comes back online. Both must complete,
// identically at any shard count.
func TestAdmissionDuringHotplugChurnSharded(t *testing.T) {
	run := func(shards int) string {
		m := sim.New(topo.Tigerton(), shardCfg(25, shards, false))
		log := sim.LogTasks(m)
		for i := 0; i < 4; i++ {
			tk := m.NewTask(fmt.Sprintf("filler%d", i), hog(500*time.Microsecond))
			m.StartOn(tk, i*4)
		}
		var during, onto *task.Task
		m.NewTimer(func(now int64) {
			m.SetCoreOnline(5, false)
		}).ScheduleAfter(2 * time.Millisecond)
		// Same timestamp as the unplug, registered after it: the
		// newcomer is admitted onto the vanished core's socket while the
		// scheduler domains are mid-churn.
		m.NewTimer(func(now int64) {
			during = m.NewTask("during", shortJob(200*time.Microsecond))
			m.StartOn(during, 6)
		}).ScheduleAfter(2 * time.Millisecond)
		m.NewTimer(func(now int64) {
			m.SetCoreOnline(5, true)
		}).ScheduleAfter(6 * time.Millisecond)
		// And one onto the core that just came back, in the same event
		// timestamp as the replug.
		m.NewTimer(func(now int64) {
			onto = m.NewTask("onto", shortJob(200*time.Microsecond))
			m.StartOn(onto, 5)
		}).ScheduleAfter(6 * time.Millisecond)
		m.Run(int64(25 * time.Millisecond))
		if during.State != task.Done {
			t.Fatalf("task admitted during churn stuck in %v", during.State)
		}
		if onto.State != task.Done {
			t.Fatalf("task admitted onto replugged core stuck in %v", onto.State)
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

// TestAdmissionAfterDrainSharded: the machine runs completely dry —
// every task done, every core idle — and then a control-queue event
// admits a fresh wave. The restart out of the idle state must be
// bit-identical at every shard count and window setting.
func TestAdmissionAfterDrainSharded(t *testing.T) {
	run := func(shards int, par bool) string {
		m := sim.New(topo.Fabric(4, 4), shardCfg(29, shards, par))
		log := sim.LogTasks(m)
		first := admitPinned(m, "first", shortJob(300*time.Microsecond), 0)
		// The first job is done well before 10 ms; the wave arrives into
		// a drained machine whose only pending event is this one.
		var wave []*task.Task
		m.NewTimer(func(now int64) {
			if first.State != task.Done {
				t.Errorf("machine not drained before admission: first is %v", first.State)
			}
			if live := m.LiveTasks(); live != 0 {
				t.Errorf("machine not drained before admission: %d live tasks", live)
			}
			for s := 0; s < 4; s++ {
				wave = append(wave, admitPinned(m, fmt.Sprintf("wave%d", s),
					shortJob(400*time.Microsecond), 4*s))
			}
		}).ScheduleAfter(10 * time.Millisecond)
		m.Run(int64(25 * time.Millisecond))
		for _, tk := range wave {
			if tk.State != task.Done {
				t.Fatalf("post-drain task %q stuck in %v", tk.Name, tk.State)
			}
		}
		return fingerprint(m, log)
	}
	want := run(1, false)
	for _, c := range []struct {
		shards int
		par    bool
	}{{2, false}, {4, false}, {4, true}} {
		if got := run(c.shards, c.par); got != want {
			t.Errorf("shards=%d parallel=%v diverged:\n%s",
				c.shards, c.par, diffLines(want, got))
		}
	}
}
