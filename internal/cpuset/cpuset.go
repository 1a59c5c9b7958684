// Package cpuset provides a compact set of CPU (core) identifiers.
//
// It models the affinity masks used by sched_setaffinity and taskset in
// the paper: a task may only be placed on cores in its mask, the Linux
// load balancer respects masks when pulling, and speedbalancer migrates a
// thread by rewriting its mask to a single core. The set is a fixed-size
// multi-word bitmask sized for datacenter-scale fabrics (1,024 logical
// CPUs — the 16-socket × 64-core machines of the sharded simulator); the
// struct stays comparable, so sets keep working as map keys and in ==
// comparisons against the zero value.
package cpuset

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxCPU is the largest representable core ID plus one.
const MaxCPU = 1024

// words is the number of 64-bit words backing a Set.
const words = MaxCPU / 64

// Set is a bitmask of core IDs in [0, MaxCPU). The zero value is the
// empty set; Sets are comparable with ==.
type Set struct {
	w [words]uint64
}

// Of returns a set containing exactly the given cores.
func Of(cores ...int) Set {
	var s Set
	for _, c := range cores {
		s = s.Add(c)
	}
	return s
}

// Range returns the set {lo, lo+1, ..., hi-1}. It panics if the range
// is non-empty and not inside [0, MaxCPU).
func Range(lo, hi int) Set {
	var s Set
	if lo >= hi {
		return s
	}
	check(lo)
	check(hi - 1)
	// Fill whole words at once: every word from lo's to (hi-1)'s, with
	// the bits below lo and from hi on cleared at the two ends.
	first, last := lo>>6, (hi-1)>>6
	for i := first; i <= last; i++ {
		s.w[i] = ^uint64(0)
	}
	s.w[first] &^= 1<<uint(lo&63) - 1
	if r := uint(hi & 63); r != 0 {
		s.w[last] &= 1<<r - 1
	}
	return s
}

// All returns a set of the first n cores.
func All(n int) Set { return Range(0, n) }

// Add returns the set with core c included. It panics if c is out of range.
func (s Set) Add(c int) Set {
	check(c)
	s.w[c>>6] |= 1 << uint(c&63)
	return s
}

// Remove returns the set with core c excluded.
func (s Set) Remove(c int) Set {
	check(c)
	s.w[c>>6] &^= 1 << uint(c&63)
	return s
}

// Has reports whether core c is in the set.
func (s Set) Has(c int) bool {
	if c < 0 || c >= MaxCPU {
		return false
	}
	return s.w[c>>6]&(1<<uint(c&63)) != 0
}

// Count returns the number of cores in the set.
func (s Set) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no cores.
func (s Set) Empty() bool { return s == Set{} }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	for i := range s.w {
		s.w[i] |= t.w[i]
	}
	return s
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	for i := range s.w {
		s.w[i] &= t.w[i]
	}
	return s
}

// Minus returns s \ t.
func (s Set) Minus(t Set) Set {
	for i := range s.w {
		s.w[i] &^= t.w[i]
	}
	return s
}

// Contains reports whether every core of t is in s.
func (s Set) Contains(t Set) bool {
	for i := range s.w {
		if t.w[i]&^s.w[i] != 0 {
			return false
		}
	}
	return true
}

// First returns the smallest core ID in the set, or -1 if empty.
func (s Set) First() int {
	for i, w := range s.w {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Next returns the smallest core ID in the set that is >= c, or -1 when
// none is. It lets callers walk a set without allocating.
func (s Set) Next(c int) int {
	if c < 0 {
		c = 0
	}
	if c >= MaxCPU {
		return -1
	}
	i := c >> 6
	w := s.w[i] >> uint(c&63)
	if w != 0 {
		return c + bits.TrailingZeros64(w)
	}
	for i++; i < words; i++ {
		if s.w[i] != 0 {
			return i<<6 + bits.TrailingZeros64(s.w[i])
		}
	}
	return -1
}

// ForEach visits the core IDs in ascending order without allocating; fn
// returning false stops the walk.
func (s Set) ForEach(fn func(c int) bool) {
	for i, w := range s.w {
		base := i << 6
		for ; w != 0; w &= w - 1 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// Cores returns the core IDs in ascending order.
func (s Set) Cores() []int {
	out := make([]int, 0, s.Count())
	for i, w := range s.w {
		base := i << 6
		for ; w != 0; w &= w - 1 {
			out = append(out, base+bits.TrailingZeros64(w))
		}
	}
	return out
}

// String renders the set in taskset-like list form, e.g. "0-3,8,10-11".
func (s Set) String() string {
	if s.Empty() {
		return "{}"
	}
	var b strings.Builder
	cores := s.Cores()
	for i := 0; i < len(cores); {
		j := i
		for j+1 < len(cores) && cores[j+1] == cores[j]+1 {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if j == i {
			fmt.Fprintf(&b, "%d", cores[i])
		} else {
			fmt.Fprintf(&b, "%d-%d", cores[i], cores[j])
		}
		i = j + 1
	}
	return b.String()
}

func check(c int) {
	if c < 0 || c >= MaxCPU {
		panic(fmt.Sprintf("cpuset: core %d out of range [0,%d)", c, MaxCPU))
	}
}
