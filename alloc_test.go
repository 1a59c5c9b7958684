package lbos

// Allocation ceilings for the simulator's hot paths. Each row builds a
// fixed scenario at a pinned seed, warms it up, and counts the heap
// allocations of one op with testing.AllocsPerRun. Allocation counts
// are a property of the code, not of the host, so the ceilings hold on
// any machine; wall time is lbbench's job (BENCHMARK.json).
//
// Every ceiling is ⌊allocs/op × 1.15⌋ of the code it was recorded on.
// A change that cuts a row's count should lower its ceiling to match.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/linuxlb"
	"repro/internal/metrics"
	"repro/internal/openload"
	"repro/internal/perturb"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// allocSeed pins every scenario below.
const allocSeed = 20100109

// allocRows are the pinned scenarios, each with its ceiling in
// allocations per op.
var allocRows = []struct {
	name string
	// long rows build a 1,024-core machine or run whole experiments;
	// -short skips them.
	long bool
	// runs is AllocsPerRun's op count (it runs one more to warm up).
	runs int
	max  float64
	// build assembles the scenario and returns its op.
	build func(t *testing.T) (op func())
}{
	{"wake", false, 20, 729, func(*testing.T) func() {
		return steady(speedScenario("wake", speedbal.Config{}, nil), time.Second, 100*time.Millisecond)
	}},
	{"predict", false, 20, 765, func(*testing.T) func() {
		cfg := speedbal.Config{Predict: predict.DefaultConfig()}
		return steady(speedScenario("predict", cfg, nil), time.Second, 100*time.Millisecond)
	}},
	{"perturb", false, 20, 1864, func(*testing.T) func() {
		return steady(speedScenario("perturb", speedbal.Config{}, addPerturbation), time.Second, 100*time.Millisecond)
	}},
	{"fab1k", true, 1, 1779, func(*testing.T) func() {
		return steady(fabric1kSetup(), 100*time.Millisecond, 10*time.Millisecond)
	}},
	{"open", false, 20, 1003, func(*testing.T) func() {
		return steady(openScenario(), time.Second, 100*time.Millisecond)
	}},
	{"serve", false, 100, 47, serveHit},
	{"fig2", true, 1, 681284, experimentRun("fig2")},
	{"fig3t", true, 1, 654394, experimentRun("fig3t")},
	{"fig5", true, 1, 195585, experimentRun("fig5")},
	{"abl-int", true, 1, 91774, experimentRun("abl-int")},
}

// TestAllocationCeilings fails when a scenario's op allocates more than
// its row allows.
func TestAllocationCeilings(t *testing.T) {
	for _, r := range allocRows {
		t.Run(r.name, func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("long scenario")
			}
			got := testing.AllocsPerRun(r.runs, r.build(t))
			t.Logf("%s: %.0f allocs/op", r.name, got)
			if got > r.max {
				t.Errorf("%s allocates %.0f times per op, ceiling %.0f", r.name, got, r.max)
			}
		})
	}
}

// steady runs m through its warm-up and returns an op that advances it
// by step of simulated time.
func steady(m *sim.Machine, warmup, step time.Duration) func() {
	m.RunFor(warmup)
	return func() { m.RunFor(step) }
}

// speedScenario is the balancer-wake scenario: 32 UPC threads on the
// 16-core Tigerton under speed balancing with cfg. The app is
// effectively endless, so every 100 ms interval does the same
// steady-state work: ~16 balancer wakes (sample + balance) plus the
// compute/barrier event traffic they ride on. add, when non-nil,
// attaches actors before the app is built.
func speedScenario(name string, cfg speedbal.Config, add func(*sim.Machine)) *sim.Machine {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: allocSeed, NewScheduler: cfs.Factory()})
	if add != nil {
		add(m)
	}
	app := spmd.Build(m, spmd.Spec{
		Name:             name,
		Threads:          32,
		Iterations:       1 << 30,
		WorkPerIteration: 3e6, // 3 ms between barriers
		Model:            spmd.UPC(),
	})
	bal := speedbal.New(cfg)
	bal.Launch(m, app)
	return m
}

// addPerturbation attaches every fault-injection family: schedulable
// kthread noise, hotplug churn, frequency drift and interrupt storms,
// with periods compressed so each 100 ms interval sees events from all
// four.
func addPerturbation(m *sim.Machine) {
	noise := perturb.KthreadNoise()
	noise.Cores = cpuset.Of(0, 2, 5, 9)
	in := perturb.New(perturb.Config{
		Noise: noise,
		Hotplug: perturb.HotplugConfig{Interval: 80 * time.Millisecond,
			OffTime: 30 * time.Millisecond, Jitter: 0.5, MaxOffline: 1},
		Freq: perturb.FreqConfig{Interval: 25 * time.Millisecond, Min: 0.6, Max: 1.0,
			Step: 0.1, Jitter: 0.5},
		Storm: perturb.StormConfig{Period: 60 * time.Millisecond,
			Duration: 2 * time.Millisecond, Jitter: 0.5, Steal: 1.0},
	})
	m.AddActor(in)
}

// openScenario is an endless-horizon openload generator at ρ=0.8 on the
// 16-core Tigerton under the Linux balancer. Each interval covers the
// whole arrival pipeline — exponential draws, control-queue timers,
// task creation, placement, per-job accounting on departure — on top of
// the scheduler traffic the admitted jobs generate.
func openScenario() *sim.Machine {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: allocSeed, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())
	m.AddActor(openload.New(openload.Config{Rho: 0.8}))
	return m
}

// fabric1kSetup assembles the datacenter-scale sharded scenario: a
// 16-socket × 64-core fabric (1,024 cores), one pinned 64-thread
// UPC-sleep app per socket, and a Linux balancer instance per socket
// domain, on 16 event shards with parallel lookahead windows. Every
// task, barrier and balancer is socket-contained, so the simulation runs
// almost entirely inside parallel windows.
func fabric1kSetup() *sim.Machine {
	tp := topo.Fabric(16, 64)
	m := sim.New(tp, sim.Config{Seed: allocSeed, NewScheduler: cfs.Factory(),
		Shards: 16, ShardParallel: true})
	perSocket := make([]cpuset.Set, 16)
	for _, ci := range tp.Cores {
		perSocket[ci.Socket] = perSocket[ci.Socket].Add(ci.ID)
	}
	for s, set := range perSocket {
		lcfg := linuxlb.DefaultConfig()
		lcfg.Domain = set
		m.AddActor(linuxlb.New(lcfg))
		app := spmd.Build(m, spmd.Spec{
			Name:             fmt.Sprintf("sock%02d", s),
			Threads:          set.Count(),
			Iterations:       1 << 30,
			WorkPerIteration: float64(300 * time.Microsecond),
			WorkJitter:       0.3,
			MemIntensity:     0.4,
			RSSBytes:         1 << 20,
			Model:            spmd.UPCSleep(),
			Affinity:         set,
		})
		app.StartPinned()
	}
	return m
}

// The 1,024-core scenario must actually exercise the sharded engine: if
// the parallel lookahead windows never open (an affinity or
// balancer-scope slip), the fab1k row silently measures the sequential
// merge. This test builds its own machine, so it holds in any test
// order.
func TestFabric1kWindowsOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 1,024-core machine")
	}
	m := fabric1kSetup()
	m.RunFor(50 * time.Millisecond)
	if m.Stats.Events == 0 {
		t.Fatal("fabric1k machine processed no events")
	}
	if m.Windows() == 0 {
		t.Fatal("fabric1k ran entirely outside parallel windows — the shard scope of an app or balancer is broken")
	}
	if frac := float64(m.WindowEvents()) / float64(m.Stats.Events); frac < 0.5 {
		t.Errorf("only %.0f%% of events ran inside windows, want most", frac*100)
	}
}

// serveHit is the lbosd cache-hit path end to end: the cache is warmed
// with one real fig1 run, then every op is a full POST /v1/runs?wait=1
// through the HTTP handler stack — spec parse, canonicalization,
// SHA-256 key derivation, cache lookup and response serialisation —
// that must come back a hit without touching the worker pool.
func serveHit(t *testing.T) func() {
	s := serve.New(serve.Config{Workers: 1, QueueDepth: 4, Version: "bench"})
	t.Cleanup(s.Drain)
	h := s.Handler()
	spec := `{"experiment":"fig1","reps":1,"scale":8,"seed":20100109}`
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/runs?wait=1", strings.NewReader(spec))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	if w := post(); w.Code != http.StatusOK {
		t.Fatalf("serve warm-up failed: %d %s", w.Code, w.Body.String())
	}
	return func() {
		if w := post(); w.Code != http.StatusOK || w.Header().Get("X-Lbos-Cache") != serve.CacheHit {
			t.Fatalf("serve op was not a cache hit: %d %q", w.Code, w.Header().Get("X-Lbos-Cache"))
		}
	}
}

// experimentRun returns a scenario whose op is one full single-rep
// serial run of a registered experiment at scale 8, with a metrics
// aggregate attached as `lbos run -metrics` attaches one.
func experimentRun(id string) func(t *testing.T) func() {
	return func(t *testing.T) func() {
		e, err := exp.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			e.Run(&exp.Context{
				Reps: 1, Scale: 8, Seed: allocSeed,
				Parallelism: 1,
				Metrics:     metrics.NewAggregate(),
			})
		}
	}
}
