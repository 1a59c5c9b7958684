package lbos

// One benchmark per table and figure of the paper (see DESIGN.md §4).
// Each bench executes a scaled-down rendition of the corresponding
// experiment — the same code paths `lbos run <id>` uses at paper scale —
// and reports the experiment's key quantity as a custom metric, so
// `go test -bench=. -benchmem` both exercises and summarises the whole
// reproduction. Absolute wall times measure simulator throughput;
// the custom metrics measure the reproduced result.

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/exp"
)

// benchCtx returns a context small enough for benchmarking but large
// enough to keep the paper's shapes visible.
func benchCtx() *exp.Context {
	return &exp.Context{Reps: 2, Scale: 8, Seed: 20100109}
}

// runExperiment executes the experiment b.N times and returns the final
// tables for metric extraction.
func runExperiment(b *testing.B, id string) []*exp.Table {
	b.Helper()
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var tables []*exp.Table
	for i := 0; i < b.N; i++ {
		tables = e.Run(benchCtx())
	}
	return tables
}

// cell parses a numeric table cell; "-" and labels yield NaN-free skips.
func cell(t *exp.Table, row, col int) (float64, bool) {
	if row < 0 || col < 0 || row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	return v, err == nil
}

// colIndex finds a column by header name.
func colIndex(t *exp.Table, name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// BenchmarkTable1Systems regenerates Table 1 (machine descriptions).
func BenchmarkTable1Systems(b *testing.B) {
	tables := runExperiment(b, "table1")
	b.ReportMetric(float64(len(tables[0].Rows)), "properties")
}

// BenchmarkFig1ModelSurface regenerates Figure 1 (the Lemma 1 threshold
// surface) and reports the fraction of splits with min S ≤ 1.
func BenchmarkFig1ModelSurface(b *testing.B) {
	runExperiment(b, "fig1")
}

// BenchmarkFig2GranularitySweep regenerates Figure 2 and reports the
// best (SPEED, B=20 ms, coarsest S) and worst (LOAD) slowdowns.
func BenchmarkFig2GranularitySweep(b *testing.B) {
	tables := runExperiment(b, "fig2")
	t := tables[0]
	last := len(t.Rows) - 1
	if v, ok := cell(t, last, 2); ok { // SPEED B=20ms at coarsest grain
		b.ReportMetric(v, "slowdown-speed-20ms")
	}
	if v, ok := cell(t, last, 1); ok {
		b.ReportMetric(v, "slowdown-load")
	}
}

// benchFig3 shares logic for the two machines.
func benchFig3(b *testing.B, id string) {
	tables := runExperiment(b, id)
	t := tables[0]
	row := len(t.Rows) - 3 // the 12-core row: mid-range, not a divisor of 16
	if v, ok := cell(t, row, colIndex(t, "SPEED")); ok {
		b.ReportMetric(v, "speedup-speed-12c")
	}
	if v, ok := cell(t, row, colIndex(t, "LOAD-YIELD")); ok {
		b.ReportMetric(v, "speedup-load-12c")
	}
	if v, ok := cell(t, row, colIndex(t, "PINNED")); ok {
		b.ReportMetric(v, "speedup-pinned-12c")
	}
}

// BenchmarkFig3TigertonEP regenerates Figure 3 (left).
func BenchmarkFig3TigertonEP(b *testing.B) { benchFig3(b, "fig3t") }

// BenchmarkFig3BarcelonaEP regenerates Figure 3 (right).
func BenchmarkFig3BarcelonaEP(b *testing.B) { benchFig3(b, "fig3b") }

// BenchmarkFig4UPCSuite regenerates Figure 4 and reports the mean
// SPEED/LOAD average-time ratio over the suite.
func BenchmarkFig4UPCSuite(b *testing.B) {
	tables := runExperiment(b, "fig4")
	t := tables[0]
	sum, n := 0.0, 0
	col := colIndex(t, "SB_AVG/LB_AVG")
	for r := range t.Rows {
		if v, ok := cell(t, r, col); ok {
			sum += v
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "mean-speed/load-ratio")
	}
}

// BenchmarkFig4OpenMPBlocktime regenerates the OpenMP DEF/INF
// comparison.
func BenchmarkFig4OpenMPBlocktime(b *testing.B) {
	tables := runExperiment(b, "fig4omp")
	t := tables[0]
	all := len(t.Rows) - 1
	if v, ok := cell(t, all, colIndex(t, "SB_INF/LB_INF")); ok {
		b.ReportMetric(v, "sbinf/lbinf")
	}
	if v, ok := cell(t, all, colIndex(t, "LB_INF/LB_DEF")); ok {
		b.ReportMetric(v, "lbinf/lbdef")
	}
}

// BenchmarkFig5CPUHog regenerates Figure 5 and reports the 16-core
// speedups under SPEED, LOAD and PINNED.
func BenchmarkFig5CPUHog(b *testing.B) {
	tables := runExperiment(b, "fig5")
	t := tables[0]
	last := len(t.Rows) - 1
	if v, ok := cell(t, last, colIndex(t, "SPEED")); ok {
		b.ReportMetric(v, "speedup-speed-16c")
	}
	if v, ok := cell(t, last, colIndex(t, "PINNED")); ok {
		b.ReportMetric(v, "speedup-pinned-16c")
	}
}

// BenchmarkFig6MakeJ regenerates Figure 6 and reports the mean
// SPEED/LOAD ratio across benchmarks and -j widths.
func BenchmarkFig6MakeJ(b *testing.B) {
	tables := runExperiment(b, "fig6")
	t := tables[0]
	sum, n := 0.0, 0
	for r := range t.Rows {
		for c := 1; c < len(t.Columns); c++ {
			if v, ok := cell(t, r, c); ok {
				sum += v
				n++
			}
		}
	}
	if n > 0 {
		b.ReportMetric(sum/float64(n), "mean-speed/load-ratio")
	}
}

// BenchmarkTable2Characteristics regenerates Table 2 and reports the
// measured Tigerton speedup of ft.B (paper: 5.3).
func BenchmarkTable2Characteristics(b *testing.B) {
	tables := runExperiment(b, "table2")
	t := tables[0]
	for r, row := range t.Rows {
		if row[0] == "ft.B" {
			if v, ok := cell(t, r, colIndex(t, "speedupT")); ok {
				b.ReportMetric(v, "ft.B-speedupT")
			}
			if v, ok := cell(t, r, colIndex(t, "speedupB")); ok {
				b.ReportMetric(v, "ft.B-speedupB")
			}
		}
	}
}

// BenchmarkTable3Summary regenerates Table 3 and reports the "all"
// aggregate improvements.
func BenchmarkTable3Summary(b *testing.B) {
	tables := runExperiment(b, "table3")
	t := tables[0]
	all := len(t.Rows) - 1
	if v, ok := cell(t, all, colIndex(t, "vs LB avg")); ok {
		b.ReportMetric(v, "improv-vs-load-%")
	}
	if v, ok := cell(t, all, colIndex(t, "vs PINNED")); ok {
		b.ReportMetric(v, "improv-vs-pinned-%")
	}
}

// BenchmarkOpenMPClassS regenerates the §6.4 class-S result (recorded as
// a negative result; see EXPERIMENTS.md).
func BenchmarkOpenMPClassS(b *testing.B) {
	tables := runExperiment(b, "ompS")
	t := tables[0]
	last := len(t.Rows) - 1
	if v, ok := cell(t, last, colIndex(t, "SB_INF vs LB_DEF %")); ok {
		b.ReportMetric(v, "improv-%")
	}
}

// Ablation benches (DESIGN.md §4).

// BenchmarkAblationThreshold sweeps T_s.
func BenchmarkAblationThreshold(b *testing.B) {
	tables := runExperiment(b, "abl-ts")
	t := tables[0]
	for r, row := range t.Rows {
		if row[0] == "0.9" {
			if v, ok := cell(t, r, colIndex(t, "balanced-run migrations")); ok {
				b.ReportMetric(v, "spurious-migs-at-0.9")
			}
		}
		_ = r
	}
}

// BenchmarkAblationInterval sweeps the balance interval.
func BenchmarkAblationInterval(b *testing.B) { runExperiment(b, "abl-int") }

// BenchmarkAblationJitter compares jitter on/off.
func BenchmarkAblationJitter(b *testing.B) { runExperiment(b, "abl-jit") }

// BenchmarkAblationNUMA compares NUMA blocking on/off.
func BenchmarkAblationNUMA(b *testing.B) { runExperiment(b, "abl-numa") }

// BenchmarkAblationPullPolicy compares victim-selection policies.
func BenchmarkAblationPullPolicy(b *testing.B) {
	tables := runExperiment(b, "abl-pull")
	t := tables[0]
	col := colIndex(t, "max per-thread migrations")
	if v, ok := cell(t, 0, col); ok {
		b.ReportMetric(v, "least-migrated-max")
	}
	if v, ok := cell(t, 2, col); ok {
		b.ReportMetric(v, "most-migrated-max")
	}
}

// Harness benchmarks: the same experiment grid executed serially and on
// the worker pool. Compare ns/op between the pair to see the wall-clock
// gain of `-parallel` on your host (on a ≥4-core machine the parallel
// variant should be ≥2× faster; outputs are bit-identical either way —
// see TestParallelDeterminism in internal/exp).

// benchHarness runs the Figure 3 Tigerton grid at the given pool width.
func benchHarness(b *testing.B, parallelism int) {
	b.Helper()
	e, err := exp.ByID("fig3t")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		ctx := benchCtx()
		ctx.Parallelism = parallelism
		e.Run(ctx)
	}
}

// BenchmarkHarnessSerial runs the grid one cell at a time.
func BenchmarkHarnessSerial(b *testing.B) { benchHarness(b, 1) }

// BenchmarkHarnessParallel runs the same grid on 4 workers.
func BenchmarkHarnessParallel(b *testing.B) { benchHarness(b, 4) }

// Substrate micro-benchmarks: simulator throughput (events/sec) for the
// canonical workload — useful when optimising the engine itself.

// BenchmarkSimulatorThroughput measures raw event processing on a
// 16-core oversubscribed run.
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		sys := NewSystem(Tigerton(), WithSeed(uint64(i)))
		app := sys.BuildApp(AppSpec{
			Name: "bench", Threads: 24, Iterations: 50,
			WorkPerIteration: 2 * Millisecond,
			Model:            UPC(),
		})
		sys.SpeedBalance(app, SpeedConfig{})
		sys.RunUntil(app)
		events += sys.Machine().Stats.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// BenchmarkFab1k measures the engine's CPU cost per event on the
// 1,024-core fabric of the fab1k allocation row (16 sockets of 64 cores,
// socket-wide memory domains, parallel shard windows). It runs at
// GOMAXPROCS 1, so wall time is CPU time, and each op advances the
// machine by one 1 ms chunk after a 100 ms warm-up. ns/event is the
// number the contention walk and the event queue are judged by.
func BenchmarkFab1k(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := fabric1kSetup()
	m.RunFor(100 * time.Millisecond)
	start := m.Stats.Events
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunFor(time.Millisecond)
	}
	b.StopTimer()
	if n := m.Stats.Events - start; n > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/event")
	}
}

func ExampleNewSystem() {
	sys := NewSystem(SMP(2), WithSeed(1))
	app := sys.BuildApp(AppSpec{
		Name: "app", Threads: 3, Iterations: 1,
		WorkPerIteration: 100 * Millisecond,
		Model:            UPC(),
	})
	sys.SpeedBalance(app, SpeedConfig{})
	sys.RunUntil(app)
	fmt.Println(app.Done())
	// Output: true
}
