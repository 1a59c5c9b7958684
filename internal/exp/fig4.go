package exp

import (
	"repro/internal/cpuset"
	"repro/internal/npb"
	"repro/internal/spmd"
	"repro/internal/stats"
	"repro/internal/topo"
)

func init() {
	Register(&Experiment{
		ID:       "fig4",
		Title:    "UPC suite: SPEED vs LOAD per benchmark (worst, avg, variation)",
		PaperRef: "Figure 4 / §6.2",
		Expect: "SPEED improves average performance by up to ~50% and worst case by " +
			"up to ~70%; SPEED varies ≈2% overall, LOAD up to ~67%.",
		Run: runFig4,
	})
	Register(&Experiment{
		ID:       "table3",
		Title:    "Summary of SPEED improvements for the combined UPC workload",
		PaperRef: "Table 3",
		Expect: "SPEED vs PINNED up to ~24%, vs LOAD average up to ~46%, vs LOAD " +
			"worst case up to ~90%; variation: SPEED ≤ ~3%, LOAD up to ~67%.",
		Run: runTable3,
	})
}

// suiteData is the measurement grid behind fig4 and table3: per
// (benchmark, core count, strategy) samples of run time. Each of the two
// experiments measures its own grid, so a run depends only on its own
// context (perturbation, prediction, trace and metrics sinks included).
type suiteData struct {
	benches []npb.Benchmark
	cores   []int
	// times[bench][cores][strategy]
	times map[string]map[int]map[Strategy]*stats.Sample
}

var fig4Strategies = []Strategy{StratSpeed, StratLoad, StratPinned}

// runSuite measures the UPC suite across core counts under SPEED, LOAD
// and PINNED on Tigerton.
func runSuite(ctx *Context) *suiteData {
	d := &suiteData{
		benches: npb.Suite(),
		cores:   []int{4, 6, 8, 10, 12, 14, 16},
		times:   map[string]map[int]map[Strategy]*stats.Sample{},
	}
	run := NewRunner(ctx)
	config := 1000
	for _, b := range d.benches {
		d.times[b.Name] = map[int]map[Strategy]*stats.Sample{}
		for _, n := range d.cores {
			d.times[b.Name][n] = map[Strategy]*stats.Sample{}
			spec := ScaleSpec(ctx, b.Spec(16, spmd.UPC(), cpuset.All(n)))
			for _, st := range fig4Strategies {
				s := &stats.Sample{}
				d.times[b.Name][n][st] = s
				run.Repeat(config, RunOpts{
					Topo: topo.Tigerton, Strategy: st, Spec: spec,
				}, func(_ int, r RunResult) { s.AddDuration(r.Elapsed) })
				config++
			}
			run.Then(func() { ctx.Logf("suite: %s on %d cores done", b.Name, n) })
		}
	}
	run.Wait()
	return d
}

func runFig4(ctx *Context) []*Table {
	d := runSuite(ctx)
	t := &Table{
		Title: "SPEED vs LOAD per benchmark and core count (ratios < 1 favour SPEED)",
		Columns: []string{"benchmark", "cores", "SB_AVG/LB_AVG", "SB_WORST/LB_WORST",
			"SB variation %", "LB variation %"},
	}
	for _, b := range d.benches {
		for _, n := range d.cores {
			sp := d.times[b.Name][n][StratSpeed]
			lb := d.times[b.Name][n][StratLoad]
			t.AddRow(b.Name, n,
				sp.Mean()/lb.Mean(),
				sp.Max()/lb.Max(),
				sp.VariationPct(),
				lb.VariationPct())
		}
	}
	t.Note("16 UPC (yield-barrier) threads on the given cores of Tigerton; %d reps", ctx.Reps)
	t.Note("reproduction finding: in the Lemma 1 unprofitable regime (S ≪ B: sp, cg, bt) rotation churn costs SPEED a few percent on a noise-free substrate, and at even splits (4/8/16 cores) there is nothing to win; the paper's uniform wins there ride on real-system LOAD noise our clean simulator does not produce. The profitable regime (ep, and ft at S ≈ B) reproduces the paper's improvements.")
	return []*Table{t}
}

func runTable3(ctx *Context) []*Table {
	d := runSuite(ctx)
	t := &Table{
		Title: "SPEED % improvement and % variation (aggregated over core counts)",
		Columns: []string{"benchmark", "vs PINNED", "vs LB avg", "vs LB worst",
			"SPEED var %", "LOAD var %"},
	}
	type agg struct{ vsPinned, vsLBAvg, vsLBWorst, varS, varL stats.Sample }
	all := &agg{}
	for _, b := range d.benches {
		a := &agg{}
		for _, n := range d.cores {
			sp := d.times[b.Name][n][StratSpeed]
			lb := d.times[b.Name][n][StratLoad]
			pn := d.times[b.Name][n][StratPinned]
			for _, x := range []*agg{a, all} {
				x.vsPinned.Add(sp.ImprovementPct(pn))
				x.vsLBAvg.Add(sp.ImprovementPct(lb))
				x.vsLBWorst.Add(sp.WorstImprovementPct(lb))
				x.varS.Add(sp.VariationPct())
				x.varL.Add(lb.VariationPct())
			}
		}
		t.AddRow(b.Name, a.vsPinned.Mean(), a.vsLBAvg.Mean(), a.vsLBWorst.Mean(),
			a.varS.Mean(), a.varL.Mean())
	}
	t.AddRow("all", all.vsPinned.Mean(), all.vsLBAvg.Mean(), all.vsLBWorst.Mean(),
		all.varS.Mean(), all.varL.Mean())
	t.Note("improvements are means over core counts {4..16}; variation is the paper's max/min ratio − 1")
	return []*Table{t}
}
