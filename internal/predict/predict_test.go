package predict

import (
	"math"
	"testing"
	"time"

	"repro/internal/xrand"
)

// With Decay = 1 the estimator is plain Welford: exact mean, population
// variance.
func TestWelfordUndecayedMatchesBatch(t *testing.T) {
	xs := []float64{0.2, 0.9, 0.4, 0.4, 0.7, 0.1, 0.5}
	var e Welford
	for _, x := range xs {
		e.Observe(x, 1)
	}
	mean, ss := 0.0, 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs))
	if math.Abs(e.Mean()-mean) > 1e-12 {
		t.Errorf("mean = %v, want %v", e.Mean(), mean)
	}
	if math.Abs(e.Var()-wantVar) > 1e-12 {
		t.Errorf("var = %v, want %v", e.Var(), wantVar)
	}
	if e.Weight() != float64(len(xs)) {
		t.Errorf("weight = %v, want %d", e.Weight(), len(xs))
	}
}

// A decayed estimator must track a level shift: after enough samples at
// the new level the mean is close to it, while an undecayed one is
// stuck between the regimes.
func TestWelfordDecayTracksShift(t *testing.T) {
	var decayed, plain Welford
	for i := 0; i < 50; i++ {
		decayed.Observe(1.0, 0.8)
		plain.Observe(1.0, 1)
	}
	for i := 0; i < 20; i++ {
		decayed.Observe(0.5, 0.8)
		plain.Observe(0.5, 1)
	}
	if d := math.Abs(decayed.Mean() - 0.5); d > 0.01 {
		t.Errorf("decayed mean %v not tracking the shift to 0.5", decayed.Mean())
	}
	if plain.Mean() < 0.8 {
		t.Errorf("undecayed mean %v forgot the old regime — decay comparison is vacuous", plain.Mean())
	}
}

// Variance of a constant signal is zero even under decay, and never
// negative under rounding.
func TestWelfordConstantSignal(t *testing.T) {
	var e Welford
	for i := 0; i < 100; i++ {
		e.Observe(0.7, 0.8)
		if e.Var() < 0 {
			t.Fatalf("negative variance %v at sample %d", e.Var(), i)
		}
	}
	if e.Var() > 1e-18 {
		t.Errorf("variance of constant signal = %v, want ~0", e.Var())
	}
	if e.StdDev() != math.Sqrt(e.Var()) {
		t.Errorf("StdDev inconsistent with Var")
	}
}

func TestDistCDF(t *testing.T) {
	d := Dist{Mean: 1, Std: 0.1}
	if got := d.CDF(1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("CDF at the mean = %v, want 0.5", got)
	}
	if got := d.CDF(0.5); got > 1e-5 {
		t.Errorf("CDF far below the mean = %v, want ~0", got)
	}
	if got := d.CDF(1.5); got < 1-1e-5 {
		t.Errorf("CDF far above the mean = %v, want ~1", got)
	}
	step := Dist{Mean: 1, Std: 0}
	if step.CDF(0.999) != 0 || step.CDF(1) != 1 {
		t.Errorf("degenerate CDF is not a step at the mean")
	}
}

// A clearly slowest distribution gets a bound near 1, the others near
// 0, and the bounds always sum to ≤ 1 (they partition disjoint events).
func TestBoundsSeparated(t *testing.T) {
	ds := []Dist{
		{Mean: 0.2, Std: 0.05}, // clearly slowest
		{Mean: 0.9, Std: 0.05},
		{Mean: 1.0, Std: 0.05},
		{Mean: 1.1, Std: 0.05}, // clearly fastest
	}
	slow := SlowestLowerBounds(ds, make([]float64, len(ds)), make([]float64, 2*len(ds)))
	if slow[0] < 0.95 {
		t.Errorf("slowest bound for the clearly slowest core = %v, want near 1", slow[0])
	}
	for i, p := range slow[1:] {
		if p > 0.05 {
			t.Errorf("slowest bound for core %d = %v, want near 0", i+1, p)
		}
	}
	sum := 0.0
	for _, p := range slow {
		sum += p
	}
	if sum > 1+1e-9 {
		t.Errorf("slowest bounds sum to %v > 1", sum)
	}
}

// Identical distributions are exchangeable: equal bounds, no NaNs.
func TestBoundsSymmetric(t *testing.T) {
	ds := []Dist{{Mean: 0.5, Std: 0.1}, {Mean: 0.5, Std: 0.1}, {Mean: 0.5, Std: 0.1}}
	out := SlowestLowerBounds(ds, make([]float64, 3), make([]float64, 6))
	for i, p := range out {
		if math.IsNaN(p) || p < 0 || p > 1 {
			t.Fatalf("bound %d = %v out of range", i, p)
		}
		if math.Abs(p-out[0]) > 1e-12 {
			t.Errorf("asymmetric bounds for exchangeable dists: %v", out)
		}
	}
}

// Degenerate (zero-variance) distributions produce certainties; the
// −inf log terms must not leak NaNs into the other bounds.
func TestBoundsDegenerate(t *testing.T) {
	ds := []Dist{
		{Mean: 0.1, Std: 0}, // certainly below any midpoint
		{Mean: 1.0, Std: 0.05},
		{Mean: 1.1, Std: 0.05},
	}
	out := SlowestLowerBounds(ds, make([]float64, 3), make([]float64, 6))
	for i, p := range out {
		if math.IsNaN(p) {
			t.Fatalf("bound %d is NaN: %v", i, out)
		}
	}
	if out[0] < 0.95 {
		t.Errorf("certainly-slowest bound = %v, want ~1", out[0])
	}
	if out[1] != 0 || out[2] != 0 {
		t.Errorf("others should be impossible to be slowest below the midpoint: %v", out)
	}
	// Two certain distributions on the candidate side: every bound
	// collapses to 0 except possibly the candidates' own, which are
	// also 0 because the *other* certain one blocks them.
	ds2 := []Dist{{Mean: 0.1, Std: 0}, {Mean: 0.1, Std: 0}, {Mean: 2.0, Std: 0.05}}
	out2 := SlowestLowerBounds(ds2, make([]float64, 3), make([]float64, 6))
	for i, p := range out2 {
		if math.IsNaN(p) {
			t.Fatalf("bound %d is NaN with two degenerate dists: %v", i, out2)
		}
	}
	if out2[0] != 0 || out2[1] != 0 {
		t.Errorf("two cores certain below the midpoint cannot each exclude the other: %v", out2)
	}
}

// The bounds read nothing from scratch before writing it: a reused
// buffer holding an earlier call's terms (NaN here) gives the bits a
// fresh one does.
func TestBoundsIgnoreScratchContents(t *testing.T) {
	ds := []Dist{{Mean: 0.1, Std: 0}, {Mean: 0.6, Std: 0.2}, {Mean: 0.9, Std: 0.1}}
	dirty := make([]float64, 2*len(ds))
	for i := range dirty {
		dirty[i] = math.NaN()
	}
	want := SlowestLowerBounds(ds, make([]float64, len(ds)), make([]float64, 2*len(ds)))
	got := SlowestLowerBounds(ds, make([]float64, len(ds)), dirty)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("bound %d with reused scratch = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestBoundsSmallSets(t *testing.T) {
	if out := SlowestLowerBounds(nil, nil, nil); len(out) != 0 {
		t.Errorf("empty set: %v", out)
	}
	out := SlowestLowerBounds([]Dist{{Mean: 0.4, Std: 0.1}}, make([]float64, 1), make([]float64, 2))
	if out[0] != 1 {
		t.Errorf("singleton is trivially slowest, got %v", out[0])
	}
}

// Predicted(j, 0) must return the realized sample bit-for-bit — the
// algebraic half of the reactive-degeneracy contract.
func TestPredictedZeroHorizonIsRealized(t *testing.T) {
	tr := NewTracker(2, 100*time.Millisecond)
	rng := xrand.New(7)
	now := int64(0)
	for i := 0; i < 40; i++ {
		now += int64(100 * time.Millisecond)
		s := 0.3 + 0.6*rng.Float64()
		tr.ObserveCore(0, s, now)
		if got := tr.Predicted(0, 0); got != s {
			t.Fatalf("sample %d: Predicted(0,0) = %v, want the realized %v exactly", i, got, s)
		}
	}
}

// The trend must carry a steadily drifting core's prediction toward the
// drift direction: a core slowing by 0.05/interval predicts lower than
// its last sample at a one-interval horizon.
func TestPredictedFollowsTrend(t *testing.T) {
	const interval = 100 * time.Millisecond
	tr := NewTracker(1, interval)
	now, s := int64(0), 1.0
	for i := 0; i < 20; i++ {
		now += int64(interval)
		tr.ObserveCore(0, s, now)
		s -= 0.05
	}
	last := s + 0.05
	got := tr.Predicted(0, interval)
	if got >= last {
		t.Errorf("prediction %v not below the last sample %v despite a falling trend", got, last)
	}
	if math.Abs(got-(last-0.05)) > 0.02 {
		t.Errorf("prediction %v, want ≈ %v (last sample minus one step)", got, last-0.05)
	}
	if p := tr.Predicted(0, 40*interval); p != 0 {
		t.Errorf("far-horizon prediction %v not clamped at 0", p)
	}
}

func TestTrackerWarmAndReset(t *testing.T) {
	tr := NewTracker(1, 100*time.Millisecond)
	if tr.CoreWarm(0) {
		t.Fatal("cold tracker reports warm")
	}
	now := int64(0)
	for i := 0; i < 5; i++ {
		now += int64(100 * time.Millisecond)
		tr.ObserveCore(0, 0.8, now)
	}
	if !tr.CoreWarm(0) {
		t.Fatal("tracker not warm after 5 samples with minWeight 3")
	}
	if mean := tr.Predicted(0, 100*time.Millisecond); math.Abs(mean-0.8) > 1e-9 {
		t.Errorf("core dist mean %v, want ~0.8", mean)
	}
	if sd := tr.CoreStd(0); sd > 1e-9 {
		t.Errorf("core dist spread %v over a constant signal, want ~0", sd)
	}
	tr.ResetCore(0)
	if tr.CoreWarm(0) {
		t.Fatal("tracker warm after reset")
	}
	if got := tr.Predicted(0, time.Second); got != 0 {
		t.Errorf("reset core predicts %v, want 0", got)
	}
}

func TestThreadEstimators(t *testing.T) {
	tr := NewTracker(1, 100*time.Millisecond)
	if _, ok := tr.ThreadMean(9); ok {
		t.Fatal("unknown thread reports a mean")
	}
	for i := 0; i < 6; i++ {
		tr.ObserveThread(9, 0.4)
	}
	m, ok := tr.ThreadMean(9)
	if !ok || math.Abs(m-0.4) > 1e-9 {
		t.Errorf("thread mean = %v ok=%v, want 0.4", m, ok)
	}
	tr.ForgetThread(9)
	if _, ok := tr.ThreadMean(9); ok {
		t.Fatal("forgotten thread still reports a mean")
	}
	if len(tr.threads) != 0 {
		t.Errorf("thread map holds %d entries after forget", len(tr.threads))
	}
}

// Config.Active is the single gate the degeneracy contract hangs on.
func TestConfigActive(t *testing.T) {
	c := DefaultConfig()
	if !c.Active() {
		t.Fatal("default config inactive")
	}
	for _, mod := range []func(*Config){
		func(c *Config) { c.Enabled = false },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Weight = 0 },
	} {
		c := DefaultConfig()
		mod(&c)
		if c.Active() {
			t.Errorf("config %+v should be inert", c)
		}
	}
}
