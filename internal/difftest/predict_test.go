package difftest

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/linuxlb"
	"repro/internal/npb"
	"repro/internal/openload"
	"repro/internal/perturb"
	"repro/internal/predict"
	"repro/internal/sim"
	"repro/internal/speedbal"
	"repro/internal/spmd"
	"repro/internal/topo"
)

// The reactive-degeneracy contract: the predictive balancer with a zero
// horizon, or a zero blend weight, must be byte-identical to the
// reactive balancer — not "statistically close", identical. The
// estimators still run (Enabled allocates and feeds the tracker), so
// these tests prove the prediction arithmetic degenerates exactly, not
// merely that a flag short-circuits it.

// degenerateConfigs are the two dials that must each independently
// collapse prediction to reactive behaviour.
var degenerateConfigs = []struct {
	name string
	cfg  predict.Config
}{
	{"horizon-0", predict.Config{Enabled: true, Horizon: 0, Weight: 1}},
	{"weight-0", predict.Config{Enabled: true, Horizon: 100 * time.Millisecond, Weight: 0}},
}

// closedFingerprint runs the canonical imbalanced closed workload (EP,
// 16 threads on 10 cores) under frequency drift with the given predict
// config and fingerprints the full machine end state.
func closedFingerprint(t *testing.T, pcfg predict.Config, seed uint64) string {
	t.Helper()
	scfg := speedbal.DefaultConfig()
	scfg.Predict = pcfg
	// ~3.5s of simulated time: long enough for the tracker to warm up
	// and for active prediction to actually change decisions (the power
	// check below fails on shorter runs), still ~10ms of wall time.
	spec := npb.EP.Spec(16, spmd.UPC(), cpuset.All(10))
	spec.WorkPerIteration /= 4
	res, log := runLogged(exp.RunOpts{
		Topo: topo.Tigerton, Strategy: exp.StratSpeed, Spec: spec,
		Seed: seed, SpeedCfg: &scfg,
		Perturb: perturb.Config{Freq: perturb.DefaultFreq()},
	})
	if res.Truncated {
		t.Fatal("closed workload truncated — fingerprints would compare limits, not runs")
	}
	return Fingerprint(res.Machine, log)
}

// openFingerprint runs an open arrival stream with rescan adoption —
// the path where the predictive placer wraps the fork placement policy
// — and fingerprints the machine end state.
func openFingerprint(pcfg predict.Config, seed uint64) string {
	cfg := sim.Config{Seed: seed}
	cfg.NewScheduler = cfs.Factory()
	m := sim.New(topo.Tigerton(), cfg)
	log := sim.LogTasks(m)
	m.AddActor(linuxlb.Default())
	scfg := speedbal.DefaultConfig()
	scfg.RescanGroup = openload.Group
	scfg.Predict = pcfg
	m.AddActor(speedbal.New(scfg))
	m.AddActor(perturb.New(perturb.Config{Freq: perturb.DefaultFreq()}))
	m.AddActor(openload.New(openload.Config{Rho: 0.6, Horizon: 500 * time.Millisecond}))
	m.Run(int64(2 * time.Second))
	return Fingerprint(m, log)
}

func TestPredictDegeneracyClosed(t *testing.T) {
	for _, seed := range []uint64{1, 20100109} {
		reactive := closedFingerprint(t, predict.Config{}, seed)
		for _, dc := range degenerateConfigs {
			if got := closedFingerprint(t, dc.cfg, seed); got != reactive {
				t.Errorf("seed %d: %s diverges from reactive:\n%s",
					seed, dc.name, firstDivergence(reactive, got))
			}
		}
		// Power check: a genuinely active config must change *something*,
		// or the comparisons above prove nothing.
		if got := closedFingerprint(t, predict.DefaultConfig(), seed); got == reactive {
			t.Errorf("seed %d: active prediction is byte-identical to reactive — degeneracy test has no power", seed)
		}
	}
}

func TestPredictDegeneracyOpen(t *testing.T) {
	for _, seed := range []uint64{7, 20100109} {
		reactive := openFingerprint(predict.Config{}, seed)
		for _, dc := range degenerateConfigs {
			if got := openFingerprint(dc.cfg, seed); got != reactive {
				t.Errorf("seed %d: %s diverges from reactive:\n%s",
					seed, dc.name, firstDivergence(reactive, got))
			}
		}
		if got := openFingerprint(predict.DefaultConfig(), seed); got == reactive {
			t.Errorf("seed %d: active prediction is byte-identical to reactive — degeneracy test has no power", seed)
		}
	}
}
