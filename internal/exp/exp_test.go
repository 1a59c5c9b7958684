package exp

import (
	"strings"
	"testing"

	"repro/internal/spmd"
	"repro/internal/topo"
)

func TestRegistryComplete(t *testing.T) {
	// Every artifact in DESIGN.md §4 must be registered.
	want := []string{
		"table1", "fig1", "fig2", "fig3t", "fig3b", "fig4", "fig4omp",
		"fig5", "fig6", "table2", "table3", "ompS",
		"abl-ts", "abl-int", "abl-jit", "abl-numa", "abl-pull",
		"ext-smt", "ext-measure", "ext-swap",
		"noise-omps", "hotplug-churn", "open-bakeoff",
		"predict-bakeoff", "abl-horizon",
	}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
			continue
		}
		if e.Title == "" || e.PaperRef == "" || e.Expect == "" || e.Run == nil {
			t.Errorf("experiment %q incompletely described", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown ID did not error")
	}
}

func TestSeedForDeterministicAndDistinct(t *testing.T) {
	a := seedFor(1, 2, 3)
	if seedFor(1, 2, 3) != a {
		t.Error("seedFor not deterministic")
	}
	seen := map[uint64]bool{a: true}
	for c := 0; c < 20; c++ {
		for r := 0; r < 10; r++ {
			s := seedFor(1, c, r)
			if seen[s] && !(c == 2 && r == 3) {
				t.Errorf("seed collision at config=%d rep=%d", c, r)
			}
			seen[s] = true
		}
	}
}

func TestTableRender(t *testing.T) {
	tb := &Table{
		Title:   "test",
		Columns: []string{"name", "value"},
	}
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", "x")
	tb.Note("a note %d", 7)
	out := tb.String()
	for _, want := range []string{"== test ==", "alpha", "1.5", "beta", "note: a note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{Columns: []string{"a", "b"}}
	tb.AddRow(`comma,cell`, 2)
	var b strings.Builder
	tb.CSV(&b)
	got := b.String()
	if !strings.Contains(got, `"comma,cell"`) {
		t.Errorf("CSV escaping broken:\n%s", got)
	}
	if !strings.HasPrefix(got, "a,b\n") {
		t.Errorf("CSV header broken:\n%s", got)
	}
}

func TestTrimFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{1.5, "1.5"}, {2.0, "2"}, {0.67, "0.67"}, {0, "0"},
		{10.125, "10.12"}, // round-half-even
	}
	for _, c := range cases {
		if got := trimFloat(c.in); got != c.want {
			t.Errorf("trimFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestScaleSpec(t *testing.T) {
	ctx := &Context{Scale: 8}
	s := spmd.Spec{Iterations: 80, WorkPerIteration: 100}
	got := ScaleSpec(ctx, s)
	if got.Iterations != 10 || got.WorkPerIteration != 100 {
		t.Errorf("scaled iterations: %+v", got)
	}
	ep := spmd.Spec{Iterations: 1, WorkPerIteration: 800}
	got = ScaleSpec(ctx, ep)
	if got.Iterations != 1 || got.WorkPerIteration != 100 {
		t.Errorf("scaled EP: %+v", got)
	}
	// Scale 1 is identity.
	if got := ScaleSpec(&Context{Scale: 1}, s); got != s {
		t.Errorf("identity scale changed spec")
	}
}

// Run executes a minimal measurement for every strategy without error
// and with a sane result.
func TestRunAllStrategies(t *testing.T) {
	for _, st := range []Strategy{StratPinned, StratLoad, StratSpeed, StratDWRR, StratULE} {
		r := Run(RunOpts{
			Topo:     func() *topo.Topology { return topo.SMP(2) },
			Strategy: st,
			Spec: spmd.Spec{
				Name: "t", Threads: 3, Iterations: 5, WorkPerIteration: 1e6,
				Model: spmd.UPC(),
			},
			Seed: 1,
		})
		if !r.App.Done() {
			t.Errorf("%s: app not done", st)
		}
		if r.Speedup <= 0 || r.Elapsed <= 0 {
			t.Errorf("%s: degenerate result %+v", st, r)
		}
	}
}

// Repetitions with different seeds are independent but deterministic.
func TestRepeatDeterminism(t *testing.T) {
	ctx := &Context{Reps: 3, Scale: 1, Seed: 7}
	collect := func() []int64 {
		var out []int64
		r := NewRunner(ctx)
		r.Repeat(42, RunOpts{
			Topo:     func() *topo.Topology { return topo.SMP(2) },
			Strategy: StratLoad,
			Spec: spmd.Spec{
				Name: "t", Threads: 3, Iterations: 5, WorkPerIteration: 1e6,
				Model: spmd.UPC(), WorkJitter: 0.2,
			},
		}, func(rep int, res RunResult) { out = append(out, int64(res.Elapsed)) })
		r.Wait()
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("rep %d differs across identical Repeats", i)
		}
	}
}

// Every experiment runs end-to-end at a tiny scale and yields at least
// one non-empty table. This is the integration smoke test for the whole
// harness; skipped in -short mode.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in short mode")
	}
	ctx := &Context{Reps: 1, Scale: 32, Seed: 99}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(ctx)
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Errorf("table %q empty", tb.Title)
				}
			}
		})
	}
}
