package exp

import (
	"fmt"
	"time"

	"repro/internal/cpuset"
	"repro/internal/perturb"
	"repro/internal/stats"
)

func init() {
	Register(&Experiment{
		ID:    "predict-bakeoff",
		Title: "Predictive vs reactive speed balancing under disturbance",
		PaperRef: "beyond the paper: §5's balancer reacts to a realized " +
			"sub-T_s interval; this arms the predictive mode and measures " +
			"what anticipation buys under the disturbances that make " +
			"speeds drift",
		Expect: "under persistent per-core noise and hotplug churn the " +
			"predictive mode's wake-time placement cuts mean response " +
			"time (anticipatory pulls stay rare at default confidence); " +
			"memoryless frequency drift has no predictable trend, so " +
			"there the mode should at best hold the median and may pay " +
			"in the tail",
		Run: runPredictBakeoff,
	})
}

// predictFamilies are the disturbance regimes of the bakeoff. IRQ noise
// pins heavy interrupt work to a fixed core subset — the persistent
// asymmetry wake-time placement can learn and avoid; hotplug and
// frequency drift move the asymmetry around, testing how fast the
// decayed estimators re-learn.
var predictFamilies = []struct {
	name string
	cfg  perturb.Config
}{
	{"clean", perturb.Config{}},
	{"irq-noise", perturb.Config{Noise: perturb.IRQNoise(cpuset.Of(0, 1, 2, 3))}},
	{"hotplug", perturb.Config{Hotplug: perturb.DefaultHotplug()}},
	{"freq-drift", perturb.Config{Freq: perturb.DefaultFreq()}},
}

// runPredictBakeoff sweeps disturbance family × {reactive, predictive}
// for the SPEED policy at a fixed moderate load, pooling per-job
// response times across repetitions.
func runPredictBakeoff(ctx *Context) []*Table {
	const rho = 0.60
	horizon := time.Duration(int64(4*time.Second) / int64(ctx.Scale))
	if horizon < 250*time.Millisecond {
		horizon = 250 * time.Millisecond
	}
	tb := &Table{
		Title: "Predictive vs reactive speed balancing (SPEED, open arrivals, rho=0.60, Tigerton)",
		Columns: []string{"family", "mode", "jobs", "unfin",
			"mean ms", "p50 ms", "p95 ms", "p99 ms", "pred pulls", "hit %"},
	}
	tb.Note("pooled over %d reps; arrivals for %v per cell, then a drain window", ctx.Reps, horizon)
	tb.Note("pred pulls = anticipatory migrations (candidate above realized T_s); hit %% = slowest-core predictions confirmed next interval")

	speed := openPolicies[0] // SPEED: linux + speed balancer
	rn := NewRunner(ctx)
	for fi, fam := range predictFamilies {
		for _, predictive := range []bool{false, true} {
			// Both modes share the family's config index, so each rep's
			// arrival stream and disturbance schedule are identical
			// between reactive and predictive: the comparison is paired.
			cfgIdx := fi
			soj := &stats.Sample{}
			jobs, unfin := new(int), new(int)
			pulls, hits, misses := new(int), new(int), new(int)
			for rep := 0; rep < ctx.Reps; rep++ {
				fam, predictive := fam, predictive
				seed := seedFor(ctx.Seed, cfgIdx, rep)
				rn.SubmitFunc(
					fmt.Sprintf("predict %s pred=%v rep %d", fam.name, predictive, rep),
					func(o RunOpts) RunResult {
						// Each row sets its own family and mode; of the
						// context's options the cell keeps only the
						// tracer and the metrics registry.
						o.Seed, o.Perturb, o.Predict = seed, fam.cfg, predictive
						c := openCellOpts{rho: rho, horizon: horizon}
						return RunResult{Out: runOpenCell(speed, c, o)}
					},
					func(res RunResult) {
						o := res.Out.(openCellOut)
						*jobs += o.admitted
						*unfin += o.unfinished
						*pulls += o.predictPulls
						*hits += o.predictHits
						*misses += o.predictMisses
						for _, v := range o.sojournsMs {
							soj.Add(v)
						}
					})
			}
			fam, predictive := fam, predictive
			rn.Then(func() {
				mode := "reactive"
				if predictive {
					mode = "predictive"
				}
				hitPct := "-"
				if n := *hits + *misses; n > 0 {
					hitPct = fmt.Sprintf("%.0f", 100*float64(*hits)/float64(n))
				}
				tb.AddRow(fam.name, mode, *jobs, *unfin,
					fmt.Sprintf("%.3f", soj.Mean()),
					fmt.Sprintf("%.3f", soj.Percentile(50)),
					fmt.Sprintf("%.3f", soj.Percentile(95)),
					fmt.Sprintf("%.3f", soj.Percentile(99)),
					*pulls, hitPct)
				ctx.Logf("predict-bakeoff: %s %s done (%d jobs)", fam.name, mode, *jobs)
			})
		}
	}
	rn.Wait()
	return []*Table{tb}
}
