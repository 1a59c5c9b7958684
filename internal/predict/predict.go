// Package predict is the anticipatory layer of the speed balancer: it
// maintains streaming per-core and per-thread speed distributions and
// turns them into "core k will be the slowest next interval"
// probability bounds, in the style of Boulmier et al., *Anticipating
// Load Imbalance* (see PAPERS.md).
//
// The paper's balancer (§5) is purely reactive — it migrates only after
// a core has already been slow for a full balance interval, so jobs
// shorter than the interval are finished before the poller ever sees
// them. The predictor closes that gap with three pieces:
//
//   - Welford: a streaming mean/variance estimator with exponential
//     decay, so the distribution tracks non-stationary signals
//     (frequency drift, migrating noise) instead of averaging them
//     away. One instance per core and per managed thread, fed from the
//     balancer's existing sample pass.
//   - Dist + SlowestLowerBounds: order-statistic probability bounds
//     over a set of normal approximations. The midpoint-split trick
//     (one log-CDF/log-CCDF evaluation per distribution, then an
//     all-minus-own exchange per candidate) gives each core a lower
//     bound on the probability that it is the slowest, at O(n) per
//     pass.
//   - Tracker: the composition speedbal feeds — realized samples in,
//     horizon-extrapolated speeds and slowest-core bounds out.
//
// Determinism: everything here is pure float64 arithmetic over the
// sampled speeds — no RNG, no wall clock, no map on any decision path —
// so on one architecture predictions are bit-identical across engine
// configurations. Across architectures they can differ: on targets with
// fused multiply-add (arm64, ppc64le, s390x, riscv64, loong64) the
// compiler fuses products in the pure-Go math.Erf and in this
// package's own arithmetic, and amd64's math.Exp is assembly whose
// last bit differs, on some inputs, from the pure-Go code other
// targets run. ROADMAP.md item 3 ("Portable determinism") tracks the
// fix.
//
// Degeneracy contract: Predicted extrapolates the *last realized
// sample* by the decayed trend, so a zero horizon returns the realized
// sample exactly, and a zero blend weight leaves effective speeds
// untouched — predictive mode with Horizon→0 or Weight→0 is
// byte-identical to the reactive balancer (pinned by the difftest
// property suite).
package predict

import (
	"math"
	"time"
)

// The estimators' fixed parameters.
const (
	// MinConfidence is the probability a purely predicted pull must
	// clear — the larger of the candidate's slowest-core lower bound
	// and its marginal probability of sub-threshold speed next
	// interval. It sits above 0.5 deliberately: an effective mean below
	// the threshold already puts the marginal at 0.5, so a gate at 0.5
	// would pass every predicted candidate; 0.75 demands the prediction
	// clear the threshold by a clear margin of its own spread. Realized
	// sub-threshold evidence stands on its own, as in the reactive
	// balancer.
	MinConfidence = 0.75
	// decay in (0,1] is the per-sample exponential decay of the
	// estimator weight; smaller forgets faster. At the balancer's
	// 100 ms cadence 0.8 halves a sample's influence in ~310 ms, fast
	// enough to track the perturbation families' drift.
	decay = 0.8
	// minWeight is the effective sample weight below which a
	// distribution is considered cold; cold predictions fall back to
	// realized speeds and load-based placement.
	minWeight = 3
)

// Config tunes the predictive mode. The zero value is disabled; a
// Config is only acted on when Active reports true.
type Config struct {
	// Enabled turns the predictive machinery on: the balancer feeds the
	// tracker and runs its decisions on horizon-extrapolated speeds.
	Enabled bool
	// Horizon is how far past the last sample core speeds are
	// extrapolated along their decayed trend — naturally one balance
	// interval (predict the interval the decision affects). Zero
	// degenerates to the reactive balancer exactly.
	Horizon time.Duration
	// Weight in [0,1] blends the anticipated drift into the effective
	// speed: eff = realized + Weight·(predicted − realized). Zero
	// degenerates to the reactive balancer exactly.
	Weight float64
}

// DefaultConfig returns the predictive profile the predict-bakeoff
// experiment runs: one-interval horizon, full blend.
func DefaultConfig() Config {
	return Config{
		Enabled: true,
		Horizon: 100 * time.Millisecond,
		Weight:  1,
	}
}

// Active reports whether the configuration changes any decision: a zero
// horizon or a zero weight makes prediction inert by construction, so
// only the estimator state differs from the reactive balancer.
func (c Config) Active() bool {
	return c.Enabled && c.Horizon > 0 && c.Weight > 0
}

// Welford is a streaming mean/variance estimator with exponential
// decay (West's weighted-increment form with geometric weights). With
// decay = 1 it is the textbook Welford recurrence; with decay < 1 old
// samples fade so the estimate tracks a drifting signal.
type Welford struct {
	w    float64 // decayed total weight
	mean float64
	m2   float64 // decayed sum of squared deviations
}

// Observe folds one sample in, decaying the accumulated state first.
func (e *Welford) Observe(x, decay float64) {
	e.w = e.w*decay + 1
	e.m2 *= decay
	d := x - e.mean
	e.mean += d / e.w
	e.m2 += d * (x - e.mean)
}

// Weight returns the decayed effective sample weight (the "how much
// evidence" measure the tracker's warm-up gates on).
func (e *Welford) Weight() float64 { return e.w }

// Mean returns the decayed mean (0 before any sample).
func (e *Welford) Mean() float64 { return e.mean }

// Var returns the decayed population variance (0 with fewer than two
// samples' worth of weight, and clamped at 0 against rounding).
func (e *Welford) Var() float64 {
	if e.w <= 1 {
		return 0
	}
	v := e.m2 / e.w
	if v < 0 {
		return 0
	}
	return v
}

// StdDev returns the decayed standard deviation.
func (e *Welford) StdDev() float64 { return math.Sqrt(e.Var()) }

// Reset forgets everything (hotplug invalidation).
func (e *Welford) Reset() { *e = Welford{} }

// Dist is a normal approximation of one core's next-interval speed.
type Dist struct {
	Mean, Std float64
}

// CDF is the normal CDF via math.Erf; a degenerate (zero-variance)
// distribution is a step at the mean.
func (d Dist) CDF(x float64) float64 {
	if d.Std <= 0 {
		if x < d.Mean {
			return 0
		}
		return 1
	}
	return 0.5 * (1 + math.Erf((x-d.Mean)/(d.Std*math.Sqrt2)))
}

// SlowestLowerBounds writes, for each distribution i, a lower bound on
// the probability that X_i is the minimum of the set: the probability
// that X_i falls below the midpoint c (the mean of means) while every
// other X_j stays above it. The bound is exact in the limit of
// well-separated distributions and conservative otherwise; the sum over
// i never exceeds 1. out must have len(ds); it is returned for
// convenience. scratch must have at least 2·len(ds) entries; it holds
// the per-distribution log terms, so a caller that keeps out and
// scratch across calls allocates nothing. With fewer than two
// distributions the bound is 1 for the lone entry (it is trivially the
// slowest) or empty.
//
// The bound uses the midpoint-split trick: one log-CDF and log-CCDF per
// distribution, a shared sum, and an exchange of the candidate's own
// term. Zero probabilities (−inf logs) are counted out of the shared
// sum so a certain distribution does not poison every other bound with
// NaNs.
func SlowestLowerBounds(ds []Dist, out, scratch []float64) []float64 {
	n := len(ds)
	if n == 0 {
		return out[:0]
	}
	out = out[:n]
	if n == 1 {
		out[0] = 1
		return out
	}
	c := 0.0
	for _, d := range ds {
		c += d.Mean
	}
	c /= float64(n)
	// own[i] = log P(X_i below c), rest[i] = log P(X_i above c).
	own, rest := scratch[:n], scratch[n:2*n]
	total := 0.0 // sum of finite rest terms
	zeros := 0   // count of rest[i] == -inf
	for i, d := range ds {
		p := d.CDF(c)
		own[i], rest[i] = math.Log(p), math.Log(1-p)
		if math.IsInf(rest[i], -1) {
			zeros++
		} else {
			total += rest[i]
		}
	}
	for i := range ds {
		// P(i extreme) ≥ P(X_i own side) · Π_{j≠i} P(X_j other side).
		// The product over j≠i is zero whenever some other j is certain
		// to be on the candidate side of the midpoint.
		switch {
		case zeros == 0:
			out[i] = math.Exp(total - rest[i] + own[i])
		case zeros == 1 && math.IsInf(rest[i], -1):
			out[i] = math.Exp(total + own[i])
		default:
			out[i] = 0
		}
	}
	return out
}

// Tracker composes the estimators for one balancer: a decayed speed
// distribution and a decayed trend (per-interval speed delta) per
// managed core, plus a decayed speed distribution per managed thread.
// All methods are single-goroutine like the balancer that owns it.
type Tracker struct {
	interval float64 // balance interval in ns, the trend's unit of time
	cores    []coreState
	threads  map[int]*Welford // keyed by task ID; never iterated
}

// coreState is one core's estimator set.
type coreState struct {
	est   Welford // decayed speed distribution
	trend Welford // decayed speed delta per balance interval
	last  float64 // most recent realized sample
	at    int64   // when it was taken
	warm  bool    // at least one sample since the last reset
}

// NewTracker sizes a tracker for n managed cores balancing at the given
// interval.
func NewTracker(n int, interval time.Duration) *Tracker {
	return &Tracker{
		interval: float64(interval),
		cores:    make([]coreState, n),
		threads:  make(map[int]*Welford),
	}
}

// ObserveCore feeds core index j's realized speed sample taken at now.
func (tr *Tracker) ObserveCore(j int, s float64, now int64) {
	cs := &tr.cores[j]
	if cs.warm && now > cs.at {
		// Normalise the observed delta to one balance interval so the
		// trend is a per-interval drift rate regardless of jitter.
		cs.trend.Observe((s-cs.last)*tr.interval/float64(now-cs.at), decay)
	}
	cs.est.Observe(s, decay)
	cs.last, cs.at, cs.warm = s, now, true
}

// ResetCore forgets core index j's history — hotplug transitions make
// the old distribution evidence about a machine that no longer exists.
func (tr *Tracker) ResetCore(j int) { tr.cores[j] = coreState{} }

// CoreWarm reports whether core index j has enough decayed evidence to
// predict from.
func (tr *Tracker) CoreWarm(j int) bool {
	cs := &tr.cores[j]
	return cs.warm && cs.est.Weight() >= minWeight
}

// Predicted returns core index j's speed extrapolated horizon past its
// last sample: the realized sample plus the decayed trend, clamped at
// zero. Predicted(j, 0) is the realized sample exactly — the degeneracy
// the reactive-equivalence property test pins.
//
// The trend is shrunk by its signal-to-noise ratio, m²/(m² + Var/W):
// a persistent drift (sustained down-clock, post-hotplug recovery)
// passes through almost untouched, while a memoryless random walk —
// whose per-interval deltas average zero with high variance — shrinks
// toward no extrapolation instead of chasing the last step. Without the
// shrinkage, trend-following on frequency random walks *doubles* the
// noise it claims to predict.
func (tr *Tracker) Predicted(j int, horizon time.Duration) float64 {
	cs := &tr.cores[j]
	m := cs.trend.Mean()
	if w := cs.trend.Weight(); w > 0 && m != 0 {
		if v := cs.trend.Var() / w; v > 0 {
			m *= m * m / (m*m + v)
		}
	}
	p := cs.last + m*(float64(horizon)/tr.interval)
	if p < 0 {
		return 0
	}
	return p
}

// CoreStd returns the standard deviation of core index j's decayed
// speed estimator — the spread SlowestLowerBounds pairs with an
// effective (blended) mean the caller computed itself.
func (tr *Tracker) CoreStd(j int) float64 { return tr.cores[j].est.StdDev() }

// ObserveThread feeds one managed thread's realized speed sample.
func (tr *Tracker) ObserveThread(id int, s float64) {
	e, ok := tr.threads[id]
	if !ok {
		e = &Welford{}
		tr.threads[id] = e
	}
	e.Observe(s, decay)
}

// ThreadMean returns the thread's decayed mean speed and whether enough
// evidence backs it.
func (tr *Tracker) ThreadMean(id int) (float64, bool) {
	e, ok := tr.threads[id]
	if !ok || e.Weight() < minWeight {
		return 0, false
	}
	return e.Mean(), true
}

// ForgetThread purges an exited thread so churny dynamic groups do not
// grow the map unboundedly.
func (tr *Tracker) ForgetThread(id int) { delete(tr.threads, id) }
