package speedbal_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
)

// Swap extension: 8 threads on 8 asymmetric cores (4×1.5x, 4×1.0x).
// Pull-only balancing cannot express the needed rotation; swaps reach
// near the 10-capacity ideal.
func TestSwapExtensionAsymmetric(t *testing.T) {
	speeds := []float64{1.5, 1.5, 1.5, 1.5, 1, 1, 1, 1}
	const work = 3e9
	run := func(swaps bool) (time.Duration, int) {
		m := sim.New(topo.Asymmetric(speeds), sim.Config{Seed: 11, NewScheduler: cfs.Factory()})
		app := spmd.Build(m, spmd.Spec{
			Name: "app", Threads: 8, Iterations: 1, WorkPerIteration: work,
			Model: spmd.UPC(),
		})
		cfg := speedbal.DefaultConfig()
		cfg.EnableSwaps = swaps
		sb := speedbal.New(cfg)
		sb.Launch(m, app)
		m.Run(int64(time.Hour))
		if !app.Done() {
			t.Fatal("app not done")
		}
		return app.Elapsed(), sb.Swaps
	}
	plain, _ := run(false)
	swapped, nswaps := run(true)
	// Ideal: 8×3s over 10 capacity = 2.4s; pull-only is pinned at the
	// slow cores' 3s.
	if plain < 2900*time.Millisecond {
		t.Errorf("pull-only %v suspiciously fast; expected ≈ 3s (slow cores bound)", plain)
	}
	if swapped > 2750*time.Millisecond {
		t.Errorf("swap-enabled %v, want clearly under 2.75s (ideal 2.4s)", swapped)
	}
	if nswaps == 0 {
		t.Error("no swaps recorded")
	}
}

// Work-rate measure: memory-bound threads clumped on two sockets run at
// 1/3 efficiency; the CPU-share measure sees nothing wrong (everyone
// has a full core), the work-rate measure spreads them across sockets.
func TestWorkRateSeesBandwidthContention(t *testing.T) {
	const work = 2e9
	spec := spmd.Spec{
		Name: "mem", Threads: 8, Iterations: 1, WorkPerIteration: work,
		Model:        spmd.UPC(),
		RSSBytes:     1 << 20,
		MemIntensity: 0.9,
		// Clump on sockets 0 and 1 (cores 0-7) initially.
		Affinity: cpuset.Range(0, 8),
	}
	run := func(measure speedbal.Measure) time.Duration {
		m := sim.New(topo.Tigerton(), sim.Config{Seed: 13, NewScheduler: cfs.Factory()})
		app := spmd.Build(m, spec)
		cfg := speedbal.DefaultConfig()
		cfg.Measure = measure
		sb := speedbal.New(cfg)
		// Manage over ALL cores (the user asked for the full machine)
		// but the app starts clumped on cores 0-7.
		app.StartPinned()
		for _, tk := range app.Tasks {
			tk.Affinity = m.Topo.AllCores() // managed set may expand
		}
		sb.Manage(m, app.Tasks, m.Topo.AllCores())
		m.AddActor(sb)
		m.Run(int64(time.Hour))
		if !app.Done() {
			t.Fatal("app not done")
		}
		return app.Elapsed()
	}
	share := run(speedbal.MeasureCPUShare)
	rate := run(speedbal.MeasureWorkRate)
	t.Logf("cpu-share %v, work-rate %v", share, rate)
	// Clumped: 4 threads/socket, f = 1−0.9+0.9·(1/3.6) = 0.35 → ~5.7s.
	// Spread: 2/socket, f = 1−0.9+0.9·(1/1.8) = 0.6 → ~3.3s.
	if float64(rate) > 0.8*float64(share) {
		t.Errorf("work-rate (%v) did not clearly beat cpu-share (%v) under bandwidth contention", rate, share)
	}
}

// SMT-aware weighting: 12 threads on 16 logical CPUs (8 physical): the
// plain share measure sees every thread at full speed; the SMT-aware
// measure rotates threads through un-contended physical cores. Finishers
// block (MPI-style), freeing their hardware contexts — which only the
// SMT-aware measure routes stragglers onto.
func TestSMTAwareRotation(t *testing.T) {
	const work = 2e9
	run := func(aware bool) time.Duration {
		m := sim.New(topo.Nehalem(), sim.Config{Seed: 17, NewScheduler: cfs.Factory()})
		app := spmd.Build(m, spmd.Spec{
			Name: "app", Threads: 12, Iterations: 1, WorkPerIteration: work,
			Model: spmd.Model{Name: "mpi-block", Policy: task.WaitBlock},
		})
		cfg := speedbal.DefaultConfig()
		cfg.SMTAware = aware
		cfg.BlockNUMA = false   // allow rotation across the two sockets
		cfg.EnableSwaps = aware // contended↔solo exchange needs swaps
		sb := speedbal.New(cfg)
		sb.Launch(m, app)
		m.Run(int64(time.Hour))
		if !app.Done() {
			t.Fatal("app not done")
		}
		return app.Elapsed()
	}
	plain := run(false)
	aware := run(true)
	t.Logf("plain %v, smt-aware %v", plain, aware)
	if aware >= plain {
		t.Errorf("SMT-aware (%v) not better than plain (%v)", aware, plain)
	}
}

// Dynamic parallelism: threads appearing after launch are adopted via
// the rescan and balanced.
func TestDynamicRescanAdoptsNewThreads(t *testing.T) {
	m := sim.New(topo.SMP(2), sim.Config{Seed: 19, NewScheduler: cfs.Factory()})
	cfg := speedbal.DefaultConfig()
	cfg.RescanGroup = "dyn"
	sb := speedbal.New(cfg)
	m.AddActor(sb)

	mk := func(i int) *task.Task {
		tk := m.NewTask(fmt.Sprintf("dyn.%d", i), &task.Seq{Actions: []task.Action{
			task.Compute(3e9),
		}})
		tk.Group = "dyn"
		return tk
	}
	// Two threads at t=0, a third at t=500ms — all forked onto core 0
	// to create the imbalance the balancer must fix.
	t0, t1 := mk(0), mk(1)
	m.StartOn(t0, 0)
	m.StartOn(t1, 1)
	m.After(500*time.Millisecond, func(int64) {
		t2 := mk(2)
		m.StartOn(t2, 0)
	})
	m.RunFor(10 * time.Second)
	if sb.Adopted != 3 {
		t.Fatalf("adopted %d threads, want 3", sb.Adopted)
	}
	if sb.Migrations == 0 {
		t.Error("no balancing after adoption (3 threads on 2 cores)")
	}
	m.Sync()
	// Fairness: all three threads make comparable progress.
	var min, max time.Duration
	for i, tk := range []*task.Task{t0, t1} {
		_ = i
		_ = tk
	}
	min, max = 0, 0
	for i, tk := range m.Tasks() {
		if tk.Group != "dyn" {
			continue
		}
		if i == 0 || tk.ExecTime < min || min == 0 {
			min = tk.ExecTime
		}
		if tk.ExecTime > max {
			max = tk.ExecTime
		}
	}
	if float64(max) > 2.2*float64(min) {
		t.Errorf("dynamic threads progress spread too wide: %v..%v", min, max)
	}
}

// The work-rate measure must not regress the homogeneous oversubscribed
// case (EP 3-on-2 still near ideal).
func TestWorkRateHomogeneousParity(t *testing.T) {
	m := sim.New(topo.SMP(2), sim.Config{Seed: 23, NewScheduler: cfs.Factory()})
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 3, Iterations: 1, WorkPerIteration: 2e9,
		Model: spmd.UPC(),
	})
	cfg := speedbal.DefaultConfig()
	cfg.Measure = speedbal.MeasureWorkRate
	sb := speedbal.New(cfg)
	sb.Launch(m, app)
	m.Run(int64(time.Hour))
	if !app.Done() {
		t.Fatal("app not done")
	}
	ideal := time.Duration(1.5 * 2e9)
	if float64(app.Elapsed()) > 1.2*float64(ideal) {
		t.Errorf("work-rate EP 3-on-2: %v, want within 20%% of %v", app.Elapsed(), ideal)
	}
}
