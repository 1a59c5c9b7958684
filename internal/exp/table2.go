package exp

import (
	"fmt"

	"repro/internal/cpuset"
	"repro/internal/npb"
	"repro/internal/spmd"
	"repro/internal/stats"
	"repro/internal/topo"
)

func init() {
	Register(&Experiment{
		ID:       "table2",
		Title:    "Selected NAS parallel benchmarks: characteristics",
		PaperRef: "Table 2",
		Expect: "bt.A: RSS 0.4GB, speedups 4.6/10.0; ft.B: 5.6GB, 5.3/10.5, " +
			"inter-barrier 73–206 ms; is.C: 3.1GB, 4.8/8.4, 44–63 ms; sp.A: 0.1GB, " +
			"7.2/12.4, ~2 ms; all 16-core run times within [2 s, 80 s].",
		Run: runTable2,
	})
}

// paperTable2 holds the paper's reported values for side-by-side
// comparison (zero = not reported).
var paperTable2 = map[string]struct {
	rssGB              float64
	speedupT, speedupB float64
	interBarrierMs     float64
}{
	"bt.A": {rssGB: 0.4, speedupT: 4.6, speedupB: 10.0},
	"ft.B": {rssGB: 5.6, speedupT: 5.3, speedupB: 10.5, interBarrierMs: 73},
	"is.C": {rssGB: 3.1, speedupT: 4.8, speedupB: 8.4, interBarrierMs: 44},
	"sp.A": {rssGB: 0.1, speedupT: 7.2, speedupB: 12.4, interBarrierMs: 2},
	"cg.B": {interBarrierMs: 4},
	"ep.C": {},
}

func runTable2(ctx *Context) []*Table {
	t := &Table{
		Title: "Benchmark characteristics: measured (one-per-core, 16 threads on 16 cores) vs paper",
		Columns: []string{"bench", "RSS GB", "paper", "speedupT", "paper", "speedupB", "paper",
			"barrier ms (T)", "paper", "runT s"},
	}
	run := NewRunner(ctx)
	config := 4000
	for _, b := range npb.Suite() {
		spec := ScaleSpec(ctx, b.Spec(16, spmd.UPC(), cpuset.All(16)))
		spT, spB, rtT := &stats.Sample{}, &stats.Sample{}, &stats.Sample{}
		barrierMs := new(float64)
		run.Repeat(config, RunOpts{
			Topo: topo.Tigerton, Strategy: StratPinned, Spec: spec,
		}, func(_ int, r RunResult) {
			spT.Add(r.Speedup)
			rtT.AddDuration(r.Elapsed)
			if spec.Iterations > 0 {
				*barrierMs = r.Elapsed.Seconds() * 1000 / float64(spec.Iterations)
			}
		})
		config++
		run.Repeat(config, RunOpts{
			Topo: topo.Barcelona, Strategy: StratPinned, Spec: spec,
		}, func(_ int, r RunResult) { spB.Add(r.Speedup) })
		config++

		run.Then(func() {
			p := paperTable2[b.Name]
			rssGB := float64(b.RSSPerThread) * 16 / float64(1<<30)
			t.AddRow(b.Name,
				rssGB, orDash(p.rssGB),
				spT.Mean(), orDash(p.speedupT),
				spB.Mean(), orDash(p.speedupB),
				*barrierMs, orDash(p.interBarrierMs),
				rtT.Mean())
			ctx.Logf("table2: %s done", b.Name)
		})
	}
	run.Wait()
	t.Note("speedups relative to serial work on an uncontended unit-speed core; run time at scale 1/%d of paper scale", ctx.Scale)
	t.Note("ep.C has a single compute phase, so its barrier column reflects the whole run")
	if ctx.Scale > 1 {
		t.Note("run times and barrier intervals are scaled down by the context scale; multiply by %d for paper scale", ctx.Scale)
	}
	return []*Table{t}
}

func orDash(v float64) string {
	if v == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", v)
}
