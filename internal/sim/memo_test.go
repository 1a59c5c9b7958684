package sim_test

// The contention model memoizes each memory domain's bandwidth demand. A
// memo read after the domain's occupancy moved would retire work at the
// wrong rate without crashing anything, so these tests audit every memo
// at every trace emission and chunk boundary of three memory-contended
// machines, and pin each run's end state to a digest recorded before the
// memo existed.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/difftest"
	"repro/internal/linuxlb"
	"repro/internal/npb"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
)

// memoAudit checks every memory domain's demand memo against a fresh
// in-order sum. Installed as the machine's tracer it runs at every
// emission; the run loop calls it again at every chunk boundary.
type memoAudit struct {
	t      *testing.T
	m      *sim.Machine
	checks int
}

func (a *memoAudit) Emit(e trace.Event) { a.check("emission " + e.Kind.String()) }

func (a *memoAudit) check(where string) {
	a.checks++
	for _, s := range sim.StaleDemandMemos(a.m) {
		a.t.Fatalf("t=%d, %s: %s", a.m.Now(), where, s)
	}
}

// contendedCase is one memory-contended machine: its topology, the
// workload installed before the run, and the digest of
// difftest.Fingerprint after horizon of simulated time.
type contendedCase struct {
	name    string
	topo    func() *topo.Topology
	setup   func(m *sim.Machine)
	horizon time.Duration
	// windowed also runs the case untraced on two shards with
	// parallel windows; its workload must be socket-contained.
	windowed bool
	digest   string
}

var contendedCases = []contendedCase{
	{
		// The fab1k shape at 2×32: socket-wide domains of capacity 8
		// saturate past 20 computing threads of intensity 0.4.
		name:     "fabric-upc-sleep",
		topo:     func() *topo.Topology { return topo.Fabric(2, 32) },
		setup:    fabricUPCSleep,
		horizon:  40 * time.Millisecond,
		windowed: true,
		digest:   "1439f439f3865b07",
	},
	{
		// SMT siblings share a memory domain: one occupancy change
		// moves both the SMT factor and the domain demand.
		name:    "nehalem-cg",
		topo:    topo.Nehalem,
		setup:   nehalemCG,
		horizon: 40 * time.Millisecond,
		digest:  "aab93fc8bf6e80a4",
	},
	{
		name:    "nehalem-split-barrier",
		topo:    topo.Nehalem,
		setup:   nehalemSplitBarrier,
		horizon: 20 * time.Millisecond,
		digest:  "b9fdd1b03dd9b580",
	},
	{
		name:    "tigerton-cg-hotplug",
		topo:    topo.Tigerton,
		setup:   tigertonCGHotplug,
		horizon: 30 * time.Millisecond,
		digest:  "49a7d4a6385fec46",
	},
}

// fabricUPCSleep runs one UPC-sleep app of 1.25 threads per core on each
// socket, balanced by a per-socket Linux balancer, so every task stays
// inside its socket's shard and parallel windows can open.
func fabricUPCSleep(m *sim.Machine) {
	sets := map[int]cpuset.Set{}
	for _, ci := range m.Topo.Cores {
		sets[ci.Socket] = sets[ci.Socket].Add(ci.ID)
	}
	for s := 0; s < len(sets); s++ {
		lcfg := linuxlb.DefaultConfig()
		lcfg.Domain = sets[s]
		m.AddActor(linuxlb.New(lcfg))
		spmd.Build(m, spmd.Spec{
			Name:             fmt.Sprintf("sock%d", s),
			Threads:          sets[s].Count() * 5 / 4,
			Iterations:       40,
			WorkPerIteration: float64(300 * time.Microsecond),
			WorkJitter:       0.3,
			MemIntensity:     0.4,
			RSSBytes:         1 << 20,
			Model:            spmd.UPCSleep(),
			Affinity:         sets[s],
		}).Start()
	}
}

// nehalemCG oversubscribes Nehalem with a CG-like app whose waiters
// block after a short spin, so barrier releases wake and dispatch
// domain mates in the middle of the releasing thread's program step.
func nehalemCG(m *sim.Machine) {
	m.AddActor(linuxlb.Default())
	spec := npb.ClassS(npb.CG).Spec(20, spmd.Model{Name: "openmp-short",
		Policy: task.WaitSpinThenBlock, Blocktime: 100 * time.Microsecond}, cpuset.Set{})
	spec.Iterations = 60
	spmd.Build(m, spec).Start()
}

// nehalemSplitBarrier runs threads that cross two barriers back to
// back. The last thread into the first barrier wakes blocked waiters
// onto idle domain mates while it still counts as computing, then
// spins in the second barrier within the same program step.
func nehalemSplitBarrier(m *sim.Machine) {
	const threads = 16
	wait := func(c task.Cond) task.Action {
		return task.WaitFor{C: c, Policy: task.WaitSpinThenBlock, Blocktime: 50 * time.Microsecond}
	}
	first, second := spmd.NewBarrier(threads), spmd.NewBarrier(threads)
	for i := 0; i < threads; i++ {
		work := float64(100*time.Microsecond) * (1 + 0.1*float64(i%5))
		t := m.NewTask(fmt.Sprintf("split.%d", i), &task.Loop{
			Iterations: 30,
			Body: func(int) []task.Action {
				return []task.Action{task.Compute{Work: work}, wait(first), wait(second)}
			},
		})
		t.MemIntensity = 0.9
		m.Start(t)
	}
}

// tigertonCGHotplug runs a CG-like UPC app on Tigerton's 4-core
// front-side-bus domains while cores are unplugged and replugged under
// it, draining running tasks out of contended domains.
func tigertonCGHotplug(m *sim.Machine) {
	m.AddActor(linuxlb.Default())
	spmd.Build(m, npb.ClassS(npb.CG).Spec(16, spmd.UPC(), cpuset.Set{})).Start()
	for _, h := range []struct {
		at     time.Duration
		core   int
		online bool
	}{
		{4 * time.Millisecond, 1, false},
		{4 * time.Millisecond, 6, false},
		{9 * time.Millisecond, 1, true},
		{14 * time.Millisecond, 2, false},
		{20 * time.Millisecond, 6, true},
		{24 * time.Millisecond, 2, true},
	} {
		m.At(int64(h.at), func(int64) { m.SetCoreOnline(h.core, h.online) })
	}
}

// runContended builds the case's machine with cfg and runs it to the
// horizon in 1 ms chunks, auditing the memos after every chunk.
func runContended(t *testing.T, c contendedCase, cfg sim.Config, audit *memoAudit) *sim.Machine {
	cfg.NewScheduler = cfs.Factory()
	m := sim.New(c.topo(), cfg)
	audit.m = m
	c.setup(m)
	for m.Now() < int64(c.horizon) {
		m.RunFor(time.Millisecond)
		audit.check("chunk boundary")
	}
	return m
}

func digest(m *sim.Machine) string {
	sum := sha256.Sum256([]byte(difftest.Fingerprint(m)))
	return hex.EncodeToString(sum[:8])
}

// TestDemandMemoNeverStale runs every contended case traced, auditing
// the memos at each emission, and pins the end state. The fabric case
// also runs untraced on two shards with parallel windows, where each
// shard worker fills its own domains' memos.
func TestDemandMemoNeverStale(t *testing.T) {
	for _, c := range contendedCases {
		t.Run(c.name, func(t *testing.T) {
			audit := &memoAudit{t: t}
			m := runContended(t, c, sim.Config{Seed: 7, Tracer: audit}, audit)
			if audit.checks < 1000 {
				t.Fatalf("only %d memo audits — the workload barely ran", audit.checks)
			}
			if got := digest(m); got != c.digest {
				t.Errorf("traced end state digest %s, pinned %s", got, c.digest)
			}
			if !c.windowed {
				return
			}
			audit = &memoAudit{t: t}
			m = runContended(t, c, sim.Config{Seed: 7, Shards: 2, ShardParallel: true}, audit)
			if m.Windows() == 0 {
				t.Fatal("no parallel window opened")
			}
			if got := digest(m); got != c.digest {
				t.Errorf("windowed end state digest %s, pinned %s", got, c.digest)
			}
		})
	}
}
