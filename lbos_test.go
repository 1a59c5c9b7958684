package lbos

import (
	"slices"
	"testing"
	"time"

	"repro/internal/speedbal"
)

// The quickstart scenario: SPEED beats LOAD on an oversubscribed app.
func TestPublicAPIQuickstart(t *testing.T) {
	spec := AppSpec{
		Name: "solver", Threads: 6, Iterations: 1,
		WorkPerIteration: 500 * Millisecond,
		Model:            UPC(),
		Affinity:         Cores(4),
	}
	loadSys := NewSystem(SMP(4), WithSeed(1))
	loadApp := loadSys.StartApp(spec)
	loadSys.RunUntil(loadApp)

	speedSys := NewSystem(SMP(4), WithSeed(1))
	speedApp := speedSys.BuildApp(spec)
	bal := speedSys.SpeedBalance(speedApp, SpeedConfig{})
	speedSys.RunUntil(speedApp)

	if !loadApp.Done() || !speedApp.Done() {
		t.Fatal("apps did not finish")
	}
	if speedApp.Elapsed() >= loadApp.Elapsed() {
		t.Errorf("SPEED %v not faster than LOAD %v", speedApp.Elapsed(), loadApp.Elapsed())
	}
	if bal.Migrations == 0 {
		t.Error("no migrations performed")
	}
}

// A zero SpeedConfig is the paper's balancer. On NUMA Barcelona, three
// UPC threads on cores 0 and 4 (different nodes) must run exactly as
// under speedbal.DefaultConfig, which blocks cross-node pulls.
func TestZeroSpeedConfigIsPaperDefault(t *testing.T) {
	type outcome struct {
		elapsed    time.Duration
		migrations int
		exec       []time.Duration
		crossNode  int
	}
	run := func(cfg SpeedConfig) outcome {
		sys := NewSystem(Barcelona(), WithSeed(1))
		m := sys.Machine()
		var o outcome
		m.OnCoreChange(func(_ *Task, from, to int) {
			if from >= 0 && m.Topo.Cores[from].Node != m.Topo.Cores[to].Node {
				o.crossNode++
			}
		})
		app := sys.BuildApp(AppSpec{
			Name: "upc", Threads: 3, Iterations: 200,
			WorkPerIteration: 5 * Millisecond,
			Model:            UPC(),
			Affinity:         CoreList(0, 4),
		})
		bal := sys.SpeedBalance(app, cfg)
		sys.RunUntil(app)
		if !app.Done() {
			t.Fatal("app did not finish")
		}
		o.elapsed, o.migrations = app.Elapsed(), bal.Migrations
		for _, tk := range app.Tasks {
			o.exec = append(o.exec, tk.ExecTime)
		}
		return o
	}
	zero, paper := run(SpeedConfig{}), run(speedbal.DefaultConfig())
	if zero.crossNode != 0 || paper.crossNode != 0 {
		t.Errorf("cross-node pulls: zero config %d, DefaultConfig %d; want none", zero.crossNode, paper.crossNode)
	}
	if zero.elapsed != paper.elapsed || zero.migrations != paper.migrations {
		t.Errorf("zero config: %v and %d migrations; DefaultConfig: %v and %d",
			zero.elapsed, zero.migrations, paper.elapsed, paper.migrations)
	}
	if !slices.Equal(zero.exec, paper.exec) {
		t.Errorf("per-thread exec times: zero config %v, DefaultConfig %v", zero.exec, paper.exec)
	}
}

// Every system option builds and runs.
func TestSystemOptions(t *testing.T) {
	spec := AppSpec{
		Name: "a", Threads: 3, Iterations: 3,
		WorkPerIteration: 5 * Millisecond, Model: UPC(),
	}
	for _, opt := range []struct {
		name string
		opts []Option
	}{
		{"linux", nil},
		{"ule", []Option{WithULE()}},
		{"dwrr", []Option{WithDWRR()}},
		{"none", []Option{WithoutBalancing()}},
	} {
		sys := NewSystem(SMP(2), append(opt.opts, WithSeed(2))...)
		app := sys.StartApp(spec)
		sys.RunUntil(app)
		if !app.Done() {
			t.Errorf("%s: app did not finish", opt.name)
		}
	}
}

// Machine presets validate and have the Table 1 shapes.
func TestMachinePresets(t *testing.T) {
	for _, f := range []func() *Topology{Tigerton, Barcelona, Nehalem} {
		tp := f()
		if err := tp.Validate(); err != nil {
			t.Errorf("%s: %v", tp.Name, err)
		}
		if tp.NumCores() != 16 {
			t.Errorf("%s: %d cores", tp.Name, tp.NumCores())
		}
	}
}

// Benchmark suite is wired through.
func TestBenchmarkSuite(t *testing.T) {
	if len(BenchmarkSuite()) != 6 {
		t.Errorf("suite size %d", len(BenchmarkSuite()))
	}
	sys := NewSystem(Tigerton(), WithSeed(3))
	spec := SP.Spec(16, OpenMPInfinite(), Cores(16))
	spec.Iterations = 50
	app := sys.StartPinned(spec)
	sys.RunUntil(app)
	if !app.Done() {
		t.Fatal("sp.A did not finish")
	}
	if sp := app.Speedup(); sp < 5 {
		t.Errorf("sp.A one-per-core speedup %.2f, want > 5", sp)
	}
}

// Competitors attach through the facade.
func TestCompetitors(t *testing.T) {
	sys := NewSystem(SMP(4), WithSeed(4))
	hog := sys.AddCPUHog(0)
	mk := sys.AddMakeJ(2)
	sys.RunFor(2 * time.Second)
	if hog.ExecTime == 0 {
		t.Error("hog did not run")
	}
	if mk.JobsFinished == 0 {
		t.Error("make -j finished no jobs")
	}
}

// Experiments are reachable through the facade.
func TestExperimentFacade(t *testing.T) {
	if len(Experiments()) < 17 {
		t.Errorf("only %d experiments", len(Experiments()))
	}
	e, err := ExperimentByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	tables := e.Run(&ExperimentContext{Reps: 1, Scale: 32})
	if len(tables) == 0 || len(tables[0].Rows) == 0 {
		t.Error("table1 produced nothing")
	}
}

// RunUntil with several apps waits for all of them.
func TestRunUntilMultipleApps(t *testing.T) {
	sys := NewSystem(SMP(4), WithSeed(5))
	a := sys.StartApp(AppSpec{Name: "a", Threads: 2, Iterations: 2,
		WorkPerIteration: 10 * Millisecond, Model: UPC()})
	b := sys.StartApp(AppSpec{Name: "b", Threads: 2, Iterations: 2,
		WorkPerIteration: 30 * Millisecond, Model: UPC()})
	sys.RunUntil(a, b)
	if !a.Done() || !b.Done() {
		t.Errorf("done: a=%v b=%v", a.Done(), b.Done())
	}
}
