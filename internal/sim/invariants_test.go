package sim_test

// Property tests: physical invariants of the simulated machine that must
// hold for every (seed, topology, strategy) draw. They guard the time
// accounting the whole reproduction rests on — the paper's speed metric
// is exec time over real time, so a task that accrues more exec time
// than wall time, a core that is busy for longer than the run, or a task
// resident on two cores at once would silently corrupt every result
// table. Runs are driven through the experiment harness (exp.Run) so the
// checked wiring is exactly what the tables measure.

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/competing"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
)

// residencyChecker samples the machine while it runs and fails the test
// if any task is visible on two cores at once (running or queued), or if
// a running task's CoreID disagrees with the core it occupies.
type residencyChecker struct {
	t      *testing.T
	every  time.Duration
	m      *sim.Machine
	timer  *sim.Timer
	checks int
}

func (rc *residencyChecker) Start(m *sim.Machine) {
	rc.m = m
	rc.timer = m.NewTimer(rc.tick)
	rc.timer.ScheduleAfter(rc.every)
}

func (rc *residencyChecker) tick(now int64) {
	rc.checks++
	seen := map[*task.Task]int{}
	for _, c := range rc.m.Cores {
		if cur := c.Current(); cur != nil {
			seen[cur]++
			if cur.CoreID != c.ID() {
				rc.t.Errorf("t=%d: running task %q has CoreID %d but occupies core %d",
					now, cur.Name, cur.CoreID, c.ID())
			}
			if cur.State != task.Running {
				rc.t.Errorf("t=%d: task %q occupies core %d in state %v",
					now, cur.Name, c.ID(), cur.State)
			}
		}
		for _, q := range c.Queued() {
			seen[q]++
		}
	}
	var multi []string
	for tk, n := range seen {
		if n > 1 {
			multi = append(multi, fmt.Sprintf("t=%d: task %q resident on %d cores at once", now, tk.Name, n))
		}
	}
	sort.Strings(multi)
	for _, msg := range multi {
		rc.t.Error(msg)
	}
	rc.timer.ScheduleAfter(rc.every)
}

// drawOpts builds a random measurement from a seeded source, spanning
// every topology family, strategy and barrier model.
func drawOpts(rng *rand.Rand) exp.RunOpts {
	topos := []func() *topo.Topology{
		func() *topo.Topology { return topo.SMP(2) },
		func() *topo.Topology { return topo.SMP(5) },
		func() *topo.Topology { return topo.SMP(16) },
		topo.Tigerton,
		topo.Barcelona,
		topo.Nehalem,
		func() *topo.Topology { return topo.Asymmetric([]float64{1.5, 1.5, 1, 1}) },
	}
	strategies := []exp.Strategy{
		exp.StratPinned, exp.StratLoad, exp.StratSpeed, exp.StratDWRR, exp.StratULE,
	}
	models := []spmd.Model{
		spmd.UPC(), spmd.UPCSleep(), spmd.MPI(), spmd.OpenMPDefault(), spmd.OpenMPInfinite(),
	}

	tp := topos[rng.Intn(len(topos))]
	cores := tp().NumCores()
	o := exp.RunOpts{
		Topo:     tp,
		Strategy: strategies[rng.Intn(len(strategies))],
		Spec: spmd.Spec{
			Name:             "prop",
			Threads:          1 + rng.Intn(2*cores),
			Iterations:       1 + rng.Intn(12),
			WorkPerIteration: float64(1+rng.Intn(40)) * 1e6,
			WorkJitter:       0.3 * rng.Float64(),
			Model:            models[rng.Intn(len(models))],
			Affinity:         cpuset.All(1 + rng.Intn(cores)),
		},
		Seed: rng.Uint64(),
	}
	if rng.Intn(3) == 0 {
		o.Spec.MemIntensity = 0.9 * rng.Float64()
		o.Spec.RSSBytes = 1 << 20
	}
	if rng.Intn(4) == 0 {
		o.Setup = func(m *sim.Machine) { competing.CPUHog(m, 0) }
	}
	return o
}

// drawPerturb builds a random perturbation mix: always hotplug churn
// (the invariant-threatening family — it moves resident tasks around),
// plus a coin-flip of each other family.
func drawPerturb(rng *rand.Rand) perturb.Config {
	cfg := perturb.Config{
		Hotplug: perturb.HotplugConfig{
			Interval:   time.Duration(5+rng.Intn(45)) * time.Millisecond,
			OffTime:    time.Duration(2+rng.Intn(20)) * time.Millisecond,
			Jitter:     rng.Float64(),
			MaxOffline: 1 + rng.Intn(3),
		},
	}
	if rng.Intn(2) == 0 {
		cfg.Noise = perturb.DefaultNoise()
		cfg.Noise.Kthread = rng.Intn(2) == 0
	}
	if rng.Intn(2) == 0 {
		cfg.Freq = perturb.DefaultFreq()
	}
	if rng.Intn(2) == 0 {
		cfg.Storm = perturb.DefaultStorm()
		cfg.Storm.Period = 50 * time.Millisecond
	}
	return cfg
}

// TestInvariantsRandomRuns checks, over random draws:
//
//  1. no task's exec time exceeds the real time it existed for,
//  2. the sum of per-core busy time never exceeds elapsed × cores
//     (and each core's busy + idle time fits in the elapsed time),
//  3. a task is never resident on two cores at once (sampled while the
//     run is in flight by residencyChecker).
func TestInvariantsRandomRuns(t *testing.T) {
	draws := 40
	if testing.Short() {
		draws = 8
	}
	rng := rand.New(rand.NewSource(20100109))
	for i := 0; i < draws; i++ {
		o := drawOpts(rng)
		rc := &residencyChecker{t: t, every: 500 * time.Microsecond}
		var log *sim.TaskLog
		setup := o.Setup
		o.Setup = func(m *sim.Machine) {
			log = sim.LogTasks(m)
			if setup != nil {
				setup(m)
			}
			m.AddActor(rc)
		}
		res := exp.Run(o)
		if len(log.Tasks) < o.Spec.Threads {
			t.Fatalf("draw %d: logged %d tasks, fewer than the app's %d threads", i, len(log.Tasks), o.Spec.Threads)
		}

		m := res.Machine
		m.Sync()
		now := m.Now()
		if now <= 0 {
			t.Fatalf("draw %d (%s on %s): run did not advance", i, o.Strategy, m.Topo.Name)
		}
		if rc.checks == 0 {
			t.Errorf("draw %d: residency checker never ran", i)
		}

		for _, tk := range log.Tasks {
			alive := now - tk.StartedAt
			if int64(tk.ExecTime) > alive {
				t.Errorf("draw %d (%s on %s): task %q exec time %v exceeds its real time %v",
					i, o.Strategy, m.Topo.Name, tk.Name, tk.ExecTime, time.Duration(alive))
			}
		}

		var busy time.Duration
		for _, c := range m.Cores {
			if int64(c.BusyTime) > now {
				t.Errorf("draw %d (%s on %s): core %d busy %v > elapsed %v",
					i, o.Strategy, m.Topo.Name, c.ID(), c.BusyTime, time.Duration(now))
			}
			if total := int64(c.BusyTime + c.IdleTime()); total > now {
				t.Errorf("draw %d (%s on %s): core %d busy+idle %v > elapsed %v",
					i, o.Strategy, m.Topo.Name, c.ID(), time.Duration(total), time.Duration(now))
			}
			busy += c.BusyTime
		}
		if limit := now * int64(len(m.Cores)); int64(busy) > limit {
			t.Errorf("draw %d (%s on %s): total busy %v exceeds elapsed × %d cores = %v",
				i, o.Strategy, m.Topo.Name, busy, len(m.Cores), time.Duration(limit))
		}
	}
}

// TestInvariantsUnderPerturbation repeats the physical-invariant checks
// with fault injection active — hotplug churn always, the other
// families by coin flip. It additionally checks the hotplug safety
// properties:
//
//  1. no task is lost — every application thread reaches Done even
//     though its core may have vanished underneath it (the run ending
//     without hitting the time limit is the machine-level witness; the
//     per-task states are checked explicitly),
//  2. unplugged cores come back, and while offline they accrue no busy
//     time beyond the run's physical budget,
//  3. the exec ≤ real and Σbusy ≤ elapsed × cores accounting bounds
//     survive drains, replugs, steals and frequency steps.
func TestInvariantsUnderPerturbation(t *testing.T) {
	draws := 25
	if testing.Short() {
		draws = 6
	}
	rng := rand.New(rand.NewSource(20100623))
	for i := 0; i < draws; i++ {
		o := drawOpts(rng)
		o.Perturb = drawPerturb(rng)
		o.Limit = 500 * time.Second
		rc := &residencyChecker{t: t, every: 500 * time.Microsecond}
		var log *sim.TaskLog
		setup := o.Setup
		o.Setup = func(m *sim.Machine) {
			log = sim.LogTasks(m)
			if setup != nil {
				setup(m)
			}
			m.AddActor(rc)
		}
		res := exp.Run(o)
		if len(log.Tasks) < o.Spec.Threads {
			t.Fatalf("draw %d: logged %d tasks, fewer than the app's %d threads", i, len(log.Tasks), o.Spec.Threads)
		}

		m := res.Machine
		m.Sync()
		now := m.Now()
		if res.Truncated {
			t.Fatalf("perturbed draw %d (%s on %s): hit the time limit — a task was starved or lost",
				i, o.Strategy, m.Topo.Name)
		}
		for _, tk := range log.Tasks {
			if tk.Group == o.Spec.Name && tk.State != task.Done {
				t.Errorf("perturbed draw %d (%s on %s): app task %q lost in state %v",
					i, o.Strategy, m.Topo.Name, tk.Name, tk.State)
			}
			if alive := now - tk.StartedAt; int64(tk.ExecTime) > alive {
				t.Errorf("perturbed draw %d (%s on %s): task %q exec %v exceeds real %v",
					i, o.Strategy, m.Topo.Name, tk.Name, tk.ExecTime, time.Duration(alive))
			}
		}
		// A core may legitimately end the run offline (the machine stops
		// the moment the app exits, pending replugs unfired), so only the
		// accounting bounds are checked per core.
		var busy time.Duration
		for _, c := range m.Cores {
			if int64(c.BusyTime) > now {
				t.Errorf("perturbed draw %d (%s on %s): core %d busy %v > elapsed %v",
					i, o.Strategy, m.Topo.Name, c.ID(), c.BusyTime, time.Duration(now))
			}
			busy += c.BusyTime
		}
		if limit := now * int64(len(m.Cores)); int64(busy) > limit {
			t.Errorf("perturbed draw %d (%s on %s): total busy %v exceeds elapsed × %d cores = %v",
				i, o.Strategy, m.Topo.Name, busy, len(m.Cores), time.Duration(limit))
		}
	}
}
