package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

// Same seed, same stream.
func TestDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

// Different seeds give different streams (first words differ for a
// sample of seeds).
func TestSeedSensitivity(t *testing.T) {
	seen := map[uint64]uint64{}
	for seed := uint64(0); seed < 200; seed++ {
		v := New(seed).Uint64()
		if prev, dup := seen[v]; dup {
			t.Fatalf("seeds %d and %d share first output %x", prev, seed, v)
		}
		seen[v] = seed
	}
}

// Split produces an independent stream: the parent advances by one and
// the child does not mirror it.
func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	var p, c [64]uint64
	for i := range p {
		p[i] = parent.Uint64()
		c[i] = child.Uint64()
	}
	same := 0
	for i := range p {
		if p[i] == c[i] {
			same++
		}
	}
	if same > 0 {
		t.Errorf("parent and child share %d of 64 outputs", same)
	}
}

// Splitting does not perturb later siblings: the second Split result is
// the same whether or not the first split stream was consumed.
func TestSplitStability(t *testing.T) {
	a := New(9)
	s1 := a.Split()
	for i := 0; i < 100; i++ {
		s1.Uint64() // consuming the child must not affect the parent
	}
	next := a.Uint64()

	b := New(9)
	b.Split()
	if got := b.Uint64(); got != next {
		t.Errorf("parent stream depends on child consumption: %x vs %x", got, next)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

// Float64 mean is near 1/2 (uniformity smoke test).
func TestFloat64Mean(t *testing.T) {
	r := New(4)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v, want ≈ 0.5", mean)
	}
}

func TestJitter(t *testing.T) {
	r := New(5)
	if got := r.Jitter(0); got != 0 {
		t.Errorf("Jitter(0) = %d", got)
	}
	if got := r.Jitter(-3); got != 0 {
		t.Errorf("Jitter(-3) = %d", got)
	}
	for i := 0; i < 1000; i++ {
		if v := r.Jitter(100); v < 0 || v >= 100 {
			t.Fatalf("Jitter out of range: %d", v)
		}
	}
}

// Perm returns a valid permutation every time.
func TestPermIsPermutation(t *testing.T) {
	r := New(6)
	for n := 0; n < 40; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

// NormFloat64 has roughly standard moments.
func TestNormMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("mean %v, want ≈ 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("variance %v, want ≈ 1", variance)
	}
}

// The exact Exponential output stream is pinned: open-system arrival
// schedules are a pure function of the seed, so any change to the draw
// (even a numerically equivalent refactor) would silently reshuffle
// every open-workload experiment. The golden values were produced by
// this implementation at the repo's canonical seed.
func TestExponentialGoldenStream(t *testing.T) {
	want := []float64{
		2.0388030724961674,
		6.4420368838956241,
		4.5923676404423484,
		1.6467988898745836,
		1.4442890352108264,
		4.2866502940896591,
		1.7622532889754279,
		0.49709967049722936,
	}
	r := New(20100109)
	for i, w := range want {
		if got := r.Exponential(0.25); got != w {
			t.Fatalf("Exponential stream diverges at step %d: got %.17g, want %.17g", i, got, w)
		}
	}
}

// Each split stream's draws are independent of how much the sibling
// consumed — the property that lets every arrival stream of an open
// workload own a split without perturbing the others.
func TestExponentialSplitStreams(t *testing.T) {
	a := New(7)
	s1, s2 := a.Split(), a.Split()
	wantS1 := []float64{0.5430856774564311, 1.617058351895867}
	wantS2 := []float64{1.4438036750143659, 1.7530186906864}
	for i := range wantS1 {
		if got := s1.Exponential(1); got != wantS1[i] {
			t.Fatalf("stream 1 step %d: got %.17g, want %.17g", i, got, wantS1[i])
		}
	}
	for i := range wantS2 {
		if got := s2.Exponential(1); got != wantS2[i] {
			t.Fatalf("stream 2 step %d: got %.17g, want %.17g", i, got, wantS2[i])
		}
	}
}

// Exponential(rate) has mean ≈ 1/rate and consumes exactly one uniform
// per draw (advancing a sibling stream's view not at all).
func TestExponentialMoments(t *testing.T) {
	r := New(12)
	const n = 200000
	const rate = 0.5
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exponential(rate)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1/rate) > 0.02 {
		t.Errorf("mean %v, want ≈ %v", mean, 1/rate)
	}
}

func TestExponentialPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for Exponential(0)")
		}
	}()
	New(1).Exponential(0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}
