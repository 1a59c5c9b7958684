package competing_test

import (
	"repro/internal/cpuset"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/competing"
	"repro/internal/linuxlb"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
)

func newMachine(n int, seed uint64) *sim.Machine {
	m := sim.New(topo.SMP(n), sim.Config{Seed: seed, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())
	return m
}

// The cpu-hog stays pinned and consumes its core fully when alone.
func TestCPUHog(t *testing.T) {
	m := newMachine(2, 1)
	hog := competing.CPUHog(m, 1)
	m.RunFor(time.Second)
	m.Sync()
	if hog.CoreID != 1 {
		t.Errorf("hog on core %d", hog.CoreID)
	}
	if hog.ExecTime < 990*time.Millisecond {
		t.Errorf("hog exec %v over 1s alone", hog.ExecTime)
	}
	if hog.Migrations != 0 {
		t.Errorf("pinned hog migrated %d times", hog.Migrations)
	}
}

// make -j keeps its width in flight and respawns finished jobs.
func TestMakeJRespawns(t *testing.T) {
	m := newMachine(4, 2)
	log := sim.LogTasks(m)
	mk := &competing.MakeJ{Width: 3}
	m.AddActor(mk)
	m.RunFor(3 * time.Second)
	if mk.JobsFinished < 10 {
		t.Errorf("only %d jobs finished in 3s", mk.JobsFinished)
	}
	// In-flight count: tasks in the "make" group not yet done.
	inflight, jobs := 0, 0
	for _, tk := range log.Tasks {
		if tk.Group != "make" {
			continue
		}
		jobs++
		if tk.State != task.Done {
			inflight++
		}
	}
	if jobs != mk.JobsFinished+inflight {
		t.Errorf("logged %d make jobs, want %d finished plus %d in flight", jobs, mk.JobsFinished, inflight)
	}
	if inflight == 0 || inflight > 3 {
		t.Errorf("in-flight jobs %d, want 1..3", inflight)
	}
}

// Duration bounds the spawner: after the window plus drain time no jobs
// remain.
func TestMakeJDuration(t *testing.T) {
	m := newMachine(4, 3)
	mk := &competing.MakeJ{Width: 2, Duration: 500 * time.Millisecond}
	m.AddActor(mk)
	m.RunFor(3 * time.Second)
	finished := mk.JobsFinished
	m.RunFor(2 * time.Second)
	if mk.JobsFinished > finished+2 {
		t.Errorf("jobs still spawning after duration: %d -> %d", finished, mk.JobsFinished)
	}
}

// Stop ceases respawning immediately.
func TestMakeJStop(t *testing.T) {
	m := newMachine(2, 4)
	mk := &competing.MakeJ{Width: 2}
	m.AddActor(mk)
	m.RunFor(time.Second)
	mk.Stop()
	n := mk.JobsFinished
	m.RunFor(2 * time.Second)
	// In-flight jobs may still complete, but no new ones spawn.
	if mk.JobsFinished > n+2 {
		t.Errorf("jobs grew from %d to %d after Stop", n, mk.JobsFinished)
	}
}

// Interactive tasks barely load the machine but keep waking.
func TestInteractive(t *testing.T) {
	m := newMachine(1, 5)
	ia := &competing.Interactive{Period: 50 * time.Millisecond, Burst: 1e6}
	m.AddActor(ia)
	m.RunFor(5 * time.Second)
	m.Sync()
	// ~100 bursts of 1 ms ≈ 100 ms of CPU over 5 s (2%).
	if ia.Task.ExecTime < 50*time.Millisecond || ia.Task.ExecTime > 200*time.Millisecond {
		t.Errorf("interactive exec %v, want ≈ 100ms", ia.Task.ExecTime)
	}
}

// MakeJ respects its affinity restriction.
func TestMakeJAffinity(t *testing.T) {
	m := newMachine(4, 6)
	log := sim.LogTasks(m)
	mk := &competing.MakeJ{Width: 4, Affinity: cpuset.Of(0, 1)}
	m.AddActor(mk)
	m.RunFor(2 * time.Second)
	if len(log.Tasks) <= mk.Width {
		t.Errorf("only %d make jobs started in 2s", len(log.Tasks))
	}
	for _, tk := range log.Tasks {
		if tk.Group == "make" && tk.CoreID > 1 {
			t.Errorf("make job on core %d outside affinity", tk.CoreID)
		}
	}
}
