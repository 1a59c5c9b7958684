package cpuset

import (
	"testing"
	"testing/quick"
)

// fromWord builds a Set from a 64-bit mask — the shape most property
// tests draw; multi-word behaviour gets its own cases below.
func fromWord(a uint64) Set {
	var s Set
	s.w[0] = a
	return s
}

// fromWords spreads three 64-bit masks across the low, middle and high
// words of the set so properties exercise the multi-word paths too.
func fromWords(a, b, c uint64) Set {
	var s Set
	s.w[0] = a
	s.w[words/2] = b
	s.w[words-1] = c
	return s
}

func TestOfAndHas(t *testing.T) {
	s := Of(0, 3, 63, 64, MaxCPU-1)
	for c := 0; c < MaxCPU; c++ {
		want := c == 0 || c == 3 || c == 63 || c == 64 || c == MaxCPU-1
		if s.Has(c) != want {
			t.Errorf("Has(%d) = %v, want %v", c, s.Has(c), want)
		}
	}
	if s.Has(-1) || s.Has(MaxCPU) {
		t.Error("Has out of range returned true")
	}
}

func TestRangeAll(t *testing.T) {
	if got, want := Range(2, 5), Of(2, 3, 4); got != want {
		t.Errorf("Range(2,5) = %v, want %v", got, want)
	}
	if got := All(3); got != Of(0, 1, 2) {
		t.Errorf("All(3) = %v", got)
	}
	if !Range(5, 5).Empty() {
		t.Error("empty range not empty")
	}
	// Cross-word range.
	if got := Range(62, 67); got != Of(62, 63, 64, 65, 66) {
		t.Errorf("Range(62,67) = %v", got)
	}
	if got := All(MaxCPU).Count(); got != MaxCPU {
		t.Errorf("All(MaxCPU).Count() = %d", got)
	}
	// Ends on and next to word boundaries, against one Add per core.
	for _, r := range [][2]int{{0, 64}, {63, 64}, {64, 128}, {127, 129}, {1, MaxCPU - 1}, {MaxCPU - 64, MaxCPU}} {
		var want Set
		for c := r[0]; c < r[1]; c++ {
			want = want.Add(c)
		}
		if got := Range(r[0], r[1]); got != want {
			t.Errorf("Range(%d,%d) = %v, want %v", r[0], r[1], got, want)
		}
	}
}

func TestAddRemove(t *testing.T) {
	var s Set
	s = s.Add(7)
	if !s.Has(7) || s.Count() != 1 {
		t.Fatalf("after Add(7): %v", s)
	}
	s = s.Add(7) // idempotent
	if s.Count() != 1 {
		t.Error("double Add changed count")
	}
	s = s.Remove(7)
	if !s.Empty() {
		t.Error("Remove did not empty the set")
	}
	s = s.Remove(7) // idempotent
	if !s.Empty() {
		t.Error("double Remove changed the set")
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for Add(%d)", MaxCPU)
		}
	}()
	var s Set
	s.Add(MaxCPU)
}

func TestCoresOrderAndFirst(t *testing.T) {
	s := Of(9, 1, 5, 200)
	got := s.Cores()
	want := []int{1, 5, 9, 200}
	if len(got) != len(want) {
		t.Fatalf("Cores = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Cores = %v, want %v", got, want)
		}
	}
	if s.First() != 1 {
		t.Errorf("First = %d", s.First())
	}
	if (Set{}).First() != -1 {
		t.Error("First of empty != -1")
	}
}

func TestNext(t *testing.T) {
	s := Of(3, 64, 130)
	cases := []struct{ from, want int }{
		{-5, 3}, {0, 3}, {3, 3}, {4, 64}, {64, 64}, {65, 130},
		{130, 130}, {131, -1}, {MaxCPU, -1}, {MaxCPU + 7, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestForEach(t *testing.T) {
	s := Of(2, 63, 64, 999)
	var got []int
	s.ForEach(func(c int) bool {
		got = append(got, c)
		return true
	})
	want := s.Cores()
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
	n := 0
	s.ForEach(func(c int) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Errorf("early-stop ForEach visited %d cores, want 2", n)
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		s    Set
		want string
	}{
		{Set{}, "{}"},
		{Of(3), "3"},
		{Of(0, 1, 2, 3), "0-3"},
		{Of(0, 1, 2, 8, 10, 11), "0-2,8,10-11"},
		{Of(63, 64, 65), "63-65"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", c.s.Cores(), got, c.want)
		}
	}
}

// Set-algebra laws via quick.Check, over multi-word sets.
func TestPropertySetAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(func(a1, a2, a3, b1, b2, b3 uint64) bool {
		x, y := fromWords(a1, a2, a3), fromWords(b1, b2, b3)
		return x.Union(y) == y.Union(x) &&
			x.Intersect(y) == y.Intersect(x) &&
			x.Union(y).Contains(x) &&
			x.Contains(x.Intersect(y)) &&
			x.Minus(y).Intersect(y).Empty() &&
			x.Minus(y).Union(x.Intersect(y)) == x
	}, cfg); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b, c uint64) bool {
		x := fromWords(a, b, c)
		return x.Count() == len(x.Cores())
	}, cfg); err != nil {
		t.Error(err)
	}
}

// Cores round-trips through Of; Next walks exactly Cores.
func TestPropertyCoresRoundTrip(t *testing.T) {
	if err := quick.Check(func(a, b, c uint64) bool {
		x := fromWords(a, b, c)
		if Of(x.Cores()...) != x {
			return false
		}
		i := 0
		for c := x.Next(0); c >= 0; c = x.Next(c + 1) {
			if x.Cores()[i] != c {
				return false
			}
			i++
		}
		return i == x.Count()
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Single-word fast path keeps the same semantics.
	if err := quick.Check(func(a uint64) bool {
		x := fromWord(a)
		return Of(x.Cores()...) == x
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
