package difftest

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/linuxlb"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// drawRun builds a random measurement spanning every topology family
// (including multi-socket fabrics), strategy and barrier model — the
// property-based workload generator the issue asks for. The draw is a
// pure function of the rng, so a failing draw index reproduces exactly.
func drawRun(rng *rand.Rand) exp.RunOpts {
	topos := []func() *topo.Topology{
		func() *topo.Topology { return topo.SMP(4) },
		topo.Tigerton,
		topo.Barcelona,
		topo.Nehalem,
		func() *topo.Topology { return topo.Fabric(2, 4) },
		func() *topo.Topology { return topo.Fabric(4, 8) },
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
			Iterations:       1 + rng.Intn(10),
			WorkPerIteration: float64(1+rng.Intn(30)) * 1e6,
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
	if rng.Intn(3) == 0 {
		o.Perturb = drawPerturb(rng)
	}
	return o
}

// drawPerturb builds a random fault-injection mix: hotplug churn (the
// family that stresses run-queue drains) plus a coin flip of each other
// family.
func drawPerturb(rng *rand.Rand) perturb.Config {
	cfg := perturb.Config{
		Hotplug: perturb.HotplugConfig{
			Interval:   time.Duration(10+rng.Intn(40)) * time.Millisecond,
			OffTime:    time.Duration(2+rng.Intn(15)) * time.Millisecond,
			Jitter:     rng.Float64(),
			MaxOffline: 1 + rng.Intn(2),
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
		cfg.Storm.Period = 60 * time.Millisecond
	}
	return cfg
}

// checkInvariants runs the physical-accounting checks both engines must
// satisfy independently of agreeing with each other: exec time never
// exceeds real time, and core busy/idle time fits in the elapsed time.
func checkInvariants(t *testing.T, label string, m *sim.Machine) {
	t.Helper()
	m.Sync()
	now := m.Now()
	if now <= 0 {
		t.Fatalf("%s: run did not advance", label)
	}
	for _, tk := range m.Tasks() {
		if alive := now - tk.StartedAt; int64(tk.ExecTime) > alive {
			t.Errorf("%s: task %q exec %v exceeds its real time %v",
				label, tk.Name, tk.ExecTime, time.Duration(alive))
		}
	}
	var busy time.Duration
	for _, c := range m.Cores {
		if int64(c.BusyTime) > now {
			t.Errorf("%s: core %d busy %v > elapsed %v", label, c.ID(), c.BusyTime, time.Duration(now))
		}
		if total := int64(c.BusyTime + c.IdleTime()); total > now {
			t.Errorf("%s: core %d busy+idle %v > elapsed %v",
				label, c.ID(), time.Duration(total), time.Duration(now))
		}
		busy += c.BusyTime
	}
	if limit := now * int64(len(m.Cores)); int64(busy) > limit {
		t.Errorf("%s: total busy %v exceeds elapsed × %d cores", label, busy, len(m.Cores))
	}
}

// TestPropertyEngineCrossCheck draws random (topology, workload,
// strategy, perturbation) measurements and runs each twice in one
// process, requiring byte-identical machine fingerprints and the
// invariant suite green on both runs. Shard-count invariance of such
// cross-socket workloads is proven in internal/sim
// (TestShardCountInvariance), below the experiment layer.
func TestPropertyEngineCrossCheck(t *testing.T) {
	draws := 25
	if testing.Short() {
		draws = 5
	}
	rng := rand.New(rand.NewSource(20100109))
	for i := 0; i < draws; i++ {
		o := drawRun(rng)
		o.Limit = 10 * time.Second

		ref := exp.Run(o)
		label := fmt.Sprintf("draw %d (%s on %s)", i, o.Strategy, ref.Machine.Topo.Name)
		checkInvariants(t, label, ref.Machine)
		want := Fingerprint(ref.Machine)

		again := exp.Run(o)
		checkInvariants(t, label+" repeat", again.Machine)
		if got := Fingerprint(again.Machine); got != want {
			t.Errorf("%s: a repeat run diverges:\n%s", label, firstDivergence(want, got))
		}
	}
}

// propFabric builds a random multi-socket machine whose entire workload
// is socket-contained — per-socket pinned apps, per-socket balancer
// domains — the regime where parallel lookahead windows actually open,
// optionally under per-core noise and frequency drift (machine-global
// timers, so they bound the windows). Returns the machine after a
// bounded run.
func propFabric(seed int64, shards int, par bool) (*sim.Machine, bool) {
	rng := rand.New(rand.NewSource(seed))
	sockets := []int{2, 4}[rng.Intn(2)]
	coresPer := []int{2, 4, 8}[rng.Intn(3)]
	tp := topo.Fabric(sockets, coresPer)
	cfg := sim.Config{Seed: uint64(seed), Shards: shards, ShardParallel: par,
		NewScheduler: cfs.Factory()}
	m := sim.New(tp, cfg)

	perSocket := make([]cpuset.Set, sockets)
	for _, ci := range tp.Cores {
		perSocket[ci.Socket] = perSocket[ci.Socket].Add(ci.ID)
	}
	useLB := rng.Intn(2) == 0
	models := []spmd.Model{spmd.UPC(), spmd.UPCSleep(), spmd.OpenMPDefault(), spmd.OpenMPInfinite()}
	model := models[rng.Intn(len(models))]
	usePerturb := rng.Intn(2) == 0
	if usePerturb {
		pcfg := perturb.Config{Noise: perturb.DefaultNoise(), Freq: perturb.DefaultFreq()}
		m.AddActor(perturb.New(pcfg))
	}
	for s := 0; s < sockets; s++ {
		if useLB {
			lcfg := linuxlb.DefaultConfig()
			lcfg.Domain = perSocket[s]
			m.AddActor(linuxlb.New(lcfg))
		}
		app := spmd.Build(m, spmd.Spec{
			Name:             fmt.Sprintf("sock%d", s),
			Threads:          coresPer + rng.Intn(coresPer),
			Iterations:       2 + rng.Intn(8),
			WorkPerIteration: float64(1+rng.Intn(5)) * 1e6,
			WorkJitter:       0.4 * rng.Float64(),
			Model:            model,
			Affinity:         perSocket[s],
		})
		app.StartPinned()
	}
	m.Run(int64(2 * time.Second))
	return m, usePerturb
}

// TestPropertyWindowCrossCheck draws random socket-contained fabrics —
// the workloads where parallel windows open — and requires the window
// engine to reproduce the sequential engines bit-for-bit, with windows
// demonstrably opening in a majority of draws.
func TestPropertyWindowCrossCheck(t *testing.T) {
	draws := 20
	if testing.Short() {
		draws = 5
	}
	windowed := 0
	for i := 0; i < draws; i++ {
		seed := int64(3000 + i)
		legacy, _ := propFabric(seed, 1, false)
		want := Fingerprint(legacy)
		checkInvariants(t, fmt.Sprintf("fabric draw %d legacy", i), legacy)

		seq, _ := propFabric(seed, 8, false)
		if got := Fingerprint(seq); got != want {
			t.Errorf("fabric draw %d: sequential shards diverge:\n%s", i, firstDivergence(want, got))
		}

		par, _ := propFabric(seed, 8, true)
		checkInvariants(t, fmt.Sprintf("fabric draw %d windowed", i), par)
		if got := Fingerprint(par); got != want {
			t.Errorf("fabric draw %d: windowed engine diverges:\n%s", i, firstDivergence(want, got))
		}
		if par.Windows() > 0 {
			windowed++
		}
	}
	if windowed < draws/2 {
		t.Errorf("windows opened in only %d/%d draws — the generator no longer exercises the parallel path", windowed, draws)
	}
}
