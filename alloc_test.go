package lbos

// Allocation ceilings for the simulator's hot paths. Each row builds a
// fixed scenario at a pinned seed, warms it up, and counts the heap
// allocations of one op with testing.AllocsPerRun. Allocation counts
// are a property of the code, not of the host, so the ceilings hold on
// any machine; wall time is lbbench's job (BENCHMARK.json).
//
// Every ceiling is ⌊count × 1.15⌋ of the code it was recorded on, the
// count being allocations per op, or per admitted job for the open row.
// A change that cuts a row's count should lower its ceiling to match.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
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
// allocations per op, or per unit for rows that count units.
var allocRows = []struct {
	name string
	// long rows build a 1,024-core machine or run whole experiments;
	// -short skips them.
	long bool
	// runs is AllocsPerRun's op count (it runs one more to warm up).
	runs int
	max  float64
	// build assembles the scenario and returns its op. A row that
	// reports allocations per unit of work (the open row: per admitted
	// job) also returns a counter of the units done so far; the others
	// return nil.
	build func(t *testing.T) (op func(), units func() int)
}{
	{"wake", false, 20, 0, func(*testing.T) (func(), func() int) {
		return steady(speedScenario("wake", speedbal.Config{}, nil), time.Second, 100*time.Millisecond), nil
	}},
	{"predict", false, 20, 0, func(*testing.T) (func(), func() int) {
		cfg := speedbal.Config{Predict: predict.DefaultConfig()}
		return steady(speedScenario("predict", cfg, nil), time.Second, 100*time.Millisecond), nil
	}},
	{"perturb", false, 20, 0, func(*testing.T) (func(), func() int) {
		return steady(speedScenario("perturb", speedbal.Config{}, addPerturbation), time.Second, 100*time.Millisecond), nil
	}},
	{"fab1k", true, 1, 35, func(*testing.T) (func(), func() int) {
		return steady(fabric1kSetup(), 100*time.Millisecond, 10*time.Millisecond), nil
	}},
	{"open", false, 20, 6, func(*testing.T) (func(), func() int) {
		m, g := openScenario(nil)
		return steady(m, time.Second, 100*time.Millisecond), func() int { return g.Admitted }
	}},
	{"setup", false, 20, 560, func(*testing.T) (func(), func() int) { return buildTigerton, nil }},
	{"serve", false, 100, 47, serveHit},
	{"fig2", true, 1, 15112, experimentRun("fig2")},
	{"fig3t", true, 1, 53760, experimentRun("fig3t")},
	{"fig5", true, 1, 23017, experimentRun("fig5")},
	{"abl-int", true, 1, 21273, experimentRun("abl-int")},
}

// TestAllocationCeilings fails when a scenario's op allocates more than
// its row allows.
func TestAllocationCeilings(t *testing.T) {
	for _, r := range allocRows {
		t.Run(r.name, func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("long scenario")
			}
			op, units := r.build(t)
			if units == nil {
				got := testing.AllocsPerRun(r.runs, op)
				t.Logf("%s: %.0f allocs/op", r.name, got)
				if got > r.max {
					t.Errorf("%s allocates %.0f times per op, ceiling %.0f", r.name, got, r.max)
				}
				return
			}
			// AllocsPerRun's first call warms up: count the units of
			// the measured calls only.
			calls, start := 0, 0
			counted := func() {
				if calls == 1 {
					start = units()
				}
				calls++
				op()
			}
			perOp := testing.AllocsPerRun(r.runs, counted)
			done := units() - start
			if done <= 0 {
				t.Fatalf("%s: %d ops did no unit of work", r.name, r.runs)
			}
			got := perOp * float64(r.runs) / float64(done)
			t.Logf("%s: %.0f allocs/op, %.1f allocs/unit over %d units", r.name, perOp, got, done)
			if got > r.max {
				t.Errorf("%s allocates %.1f times per unit, ceiling %.0f", r.name, got, r.max)
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
// the scheduler traffic the admitted jobs generate. A non-nil speed adds
// a speed balancer with that config, as open-bakeoff's SPEED policy
// does.
func openScenario(speed *speedbal.Config) (*sim.Machine, *openload.Gen) {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: allocSeed, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())
	if speed != nil {
		m.AddActor(speedbal.New(*speed))
	}
	g := openload.New(openload.Config{Rho: 0.8})
	m.AddActor(g)
	return m, g
}

// buildTigerton is the set-up a LOAD run of a closed experiment pays: a
// Tigerton machine under CFS and the Linux balancer with a 16-thread UPC
// app started on it, run to time zero so the balancer's Start builds its
// sched groups.
func buildTigerton() {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: allocSeed, NewScheduler: cfs.Factory()})
	m.AddActor(linuxlb.Default())
	app := spmd.Build(m, spmd.Spec{
		Name:             "setup",
		Threads:          16,
		Iterations:       10,
		WorkPerIteration: 3e6,
		Model:            spmd.UPC(),
	})
	app.Start()
	m.Run(0)
}

// An open run holds memory only for its live jobs. From 20 s to 120 s
// of simulated time at ρ=0.8 the heap left after a collection may grow
// by at most 8 B per admitted job, which is noise: the machine forgets
// an exited task, the generator hands each completed job's record to
// its OnJobDone hook (unset here) instead of keeping it, and a speed
// balancer adopting the arrivals forgets each thread when it exits.
// Keeping the 64-byte records reads about 81 B per job, keeping every
// exited task, its name, program and sleep timer several hundred, and a
// speed balancer that keeps every thread it adopted 427 (459 with
// prediction).
func TestOpenRunMemoryBounded(t *testing.T) {
	speed := speedbal.DefaultConfig()
	speed.RescanGroup = openload.Group
	predictive := speed
	predictive.Predict = predict.DefaultConfig()
	for _, r := range []struct {
		name  string
		speed *speedbal.Config
	}{
		{"LOAD", nil},
		{"SPEED", &speed},
		{"SPEED-predict", &predictive},
	} {
		t.Run(r.name, func(t *testing.T) {
			m, g := openScenario(r.speed)
			m.RunFor(20 * time.Second)
			before, jobs := liveHeap(), g.Admitted
			m.RunFor(100 * time.Second)
			after := liveHeap()
			jobs = g.Admitted - jobs
			runtime.KeepAlive(m)
			perJob := (float64(after) - float64(before)) / float64(jobs)
			t.Logf("heap %d → %d B over %d admitted jobs: %.0f B/job, %d live tasks",
				before, after, jobs, perJob, m.LiveTasks())
			if perJob > 8 {
				t.Errorf("heap grew by %.0f B per admitted job, want at most 8", perJob)
			}
		})
	}
}

// liveHeap returns the bytes of heap objects still reachable after a
// full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
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
func serveHit(t *testing.T) (func(), func() int) {
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
	}, nil
}

// experimentRun returns a scenario whose op is one full single-rep
// serial run of a registered experiment at scale 8, with a metrics
// aggregate attached as `lbos run -metrics` attaches one.
func experimentRun(id string) func(t *testing.T) (func(), func() int) {
	return func(t *testing.T) (func(), func() int) {
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
		}, nil
	}
}
