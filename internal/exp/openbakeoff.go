package exp

import (
	"fmt"
	"time"

	"repro/internal/cfs"
	"repro/internal/dwrr"
	"repro/internal/linuxlb"
	"repro/internal/openload"
	"repro/internal/perturb"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/ule"
)

func init() {
	Register(&Experiment{
		ID:    "open-bakeoff",
		Title: "Open-system bakeoff: job response time vs offered load",
		PaperRef: "beyond the paper: §6 measures closed batches; this sweeps " +
			"a seeded open arrival stream over every balancer in the repo",
		Expect: "response times grow with ρ and diverge as ρ → 1; dynamic " +
			"balancing beats the EQUI-style fixed allocation at high load, " +
			"and speed balancing's rescan adoption keeps SPEED competitive " +
			"on arrivals it was never handed at startup",
		Run: runOpenBakeoff,
	})
}

// openPolicy is one contender in the bakeoff.
type openPolicy struct {
	name  string
	dwrr  bool // DWRR scheduler (balances by round stealing)
	linux bool // Linux queue-length balancer
	speed bool // + user-level speed balancer adopting the open group
	ule   bool // FreeBSD ULE push/pull
	equi  bool // EQUI-style fixed allocation (pin at admission)
}

// openPolicies lists the contenders; CFS is the no-balancer baseline
// (per-core queues, fork placement only).
var openPolicies = []openPolicy{
	{name: string(StratSpeed), linux: true, speed: true},
	{name: string(StratLoad), linux: true},
	{name: string(StratDWRR), dwrr: true},
	{name: string(StratULE), ule: true},
	{name: "CFS"},
	{name: "EQUI", equi: true},
}

// openRhos is the offered-load sweep; 0.95 probes near-saturation where
// placement quality dominates response time.
var openRhos = []float64{0.30, 0.50, 0.70, 0.85, 0.95}

// openCellOut is one cell's harvest: per-job response times and wake
// latencies, pooled across repetitions by the row assembly.
type openCellOut struct {
	sojournsMs []float64
	wakesUs    []float64
	admitted   int
	unfinished int
	// predictPulls/Hits/Misses are the speed balancer's prediction
	// audit counters (zero for non-SPEED policies or reactive cells).
	predictPulls  int
	predictHits   int
	predictMisses int
}

// openCellOpts parameterises one open-system cell beyond the policy
// itself: load point, run length, optional fault injection and the
// speed balancer's predictive mode.
type openCellOpts struct {
	rho     float64
	horizon time.Duration
	seed    uint64
	perturb perturb.Config
	predict bool
}

// runOpenCell simulates one (policy, ρ, seed) cell: arrivals for
// horizon, then a drain window, then per-job accounting.
func runOpenCell(p openPolicy, o openCellOpts) openCellOut {
	cfg := sim.Config{Seed: o.seed}
	if p.dwrr {
		cfg.NewScheduler, _ = dwrr.NewFactory(dwrr.DefaultConfig())
	} else {
		cfg.NewScheduler = cfs.Factory()
	}
	m := sim.New(topo.Tigerton(), cfg)
	if p.linux {
		m.AddActor(linuxlb.Default())
	}
	var sb *speedbal.Balancer
	if p.speed {
		scfg := speedbal.DefaultConfig()
		scfg.RescanGroup = openload.Group
		if o.predict {
			scfg.Predict = predict.DefaultConfig()
		}
		sb = speedbal.New(scfg)
		m.AddActor(sb)
	}
	if p.ule {
		m.AddActor(ule.Default())
	}
	if o.perturb.Active() {
		// After the balancers, as in exp.Run: the RNG split order stays
		// fixed regardless of which families are on.
		m.AddActor(perturb.New(o.perturb))
	}
	g := openload.New(openload.Config{
		Rho:        o.rho,
		Horizon:    o.horizon,
		FixedAlloc: p.equi,
	})
	m.AddActor(g)
	// Run past the horizon so the backlog drains; a stable system
	// (ρ < 1) empties well inside 2 extra horizons + 2 s, and whatever
	// does not is reported in the table's unfinished column rather than
	// silently truncated out of the percentiles.
	m.Run(int64(3*o.horizon) + int64(2*time.Second))
	out := openCellOut{admitted: g.Admitted, unfinished: g.Unfinished()}
	if sb != nil {
		out.predictPulls = sb.PredictPulls
		out.predictHits = sb.PredictHits
		out.predictMisses = sb.PredictMisses
	}
	for _, r := range g.Records {
		out.sojournsMs = append(out.sojournsMs, float64(r.Sojourn)/1e6)
		if r.Wakes > 0 {
			out.wakesUs = append(out.wakesUs, float64(r.WakeMean)/1e3)
		}
	}
	return out
}

// runOpenBakeoff sweeps ρ × policy, pooling per-job sojourns across
// repetitions into mean/p50/p95/p99 response times.
func runOpenBakeoff(ctx *Context) []*Table {
	horizon := time.Duration(int64(8*time.Second) / int64(ctx.Scale))
	if horizon < 250*time.Millisecond {
		horizon = 250 * time.Millisecond
	}
	tb := &Table{
		Title: "Open-system bakeoff: sojourn time vs offered load (Tigerton, 16 cores)",
		Columns: []string{"rho", "policy", "jobs", "unfin",
			"mean ms", "p50 ms", "p95 ms", "p99 ms", "wake us"},
	}
	tb.Note("pooled over %d reps; arrivals for %v per cell, then a drain window", ctx.Reps, horizon)
	tb.Note("wake us = mean per-job wake-to-run latency over jobs that slept")

	rn := NewRunner(ctx)
	for ri, rho := range openRhos {
		for pi, p := range openPolicies {
			cfgIdx := ri*len(openPolicies) + pi
			// Result callbacks run on the Wait goroutine in submission
			// order, so pooling into per-config samples there is both
			// race-free and deterministic.
			soj, wake := &stats.Sample{}, &stats.Sample{}
			jobs, unfin := new(int), new(int)
			for rep := 0; rep < ctx.Reps; rep++ {
				rho, p := rho, p
				seed := seedFor(ctx.Seed, cfgIdx, rep)
				rn.SubmitFunc(
					fmt.Sprintf("open rho=%.2f %s rep %d", rho, p.name, rep),
					func() RunResult {
						return RunResult{Out: runOpenCell(p, openCellOpts{
							rho: rho, horizon: horizon, seed: seed,
							predict: ctx.Predict,
						})}
					},
					func(res RunResult) {
						o := res.Out.(openCellOut)
						*jobs += o.admitted
						*unfin += o.unfinished
						for _, v := range o.sojournsMs {
							soj.Add(v)
						}
						for _, v := range o.wakesUs {
							wake.Add(v)
						}
					})
			}
			rho, p := rho, p
			rn.Then(func() {
				tb.AddRow(fmt.Sprintf("%.2f", rho), p.name, *jobs, *unfin,
					fmt.Sprintf("%.3f", soj.Mean()),
					fmt.Sprintf("%.3f", soj.Percentile(50)),
					fmt.Sprintf("%.3f", soj.Percentile(95)),
					fmt.Sprintf("%.3f", soj.Percentile(99)),
					fmt.Sprintf("%.1f", wake.Mean()))
				ctx.Logf("open-bakeoff: rho=%.2f %s done (%d jobs)", rho, p.name, *jobs)
			})
		}
	}
	rn.Wait()
	return []*Table{tb}
}
