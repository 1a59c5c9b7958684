// Package spmd models SPMD (single program, multiple data) parallel
// applications: N threads alternating computation phases with barrier
// synchronization, the structure of the OpenMP, UPC and MPI workloads
// evaluated in the paper (§3).
//
// The package provides the barrier condition with the wait-policy
// variants whose interaction with OS load balancing the paper studies —
// polling (spin), sched_yield (UPC/MPI default), usleep polling (the
// paper's modified "LOAD-SLEEP" UPC runtime) and spin-then-block (Intel
// OpenMP's KMP_BLOCKTIME) — plus the App builder used by the workloads in
// package npb.
package spmd

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/task"
	"repro/internal/trace"
)

// Barrier is an N-party reusable (generational) barrier, implementing
// task.Cond.
type Barrier struct {
	n       int
	arrived int
	gen     int
	waiters []*task.Task
	// released is the buffer of the previous episode's waiters. Arrive
	// swaps the two buffers at every release, so waiters that arrive
	// while others are still being released land in the other one and
	// a steady barrier never allocates.
	released []*task.Task
	// arrivedAt mirrors waiters with each waiter's arrival time, feeding
	// the barrier-wait histogram when the machine collects metrics.
	arrivedAt []int64
	// Crossings counts completed barrier episodes (all N arrived).
	Crossings int
}

// waitBuckets spans barrier waits from 1 µs to ~4 s, geometric ×4.
var waitBuckets = metrics.ExpBuckets(1e3, 4, 12)

// NewBarrier returns a barrier for n parties. It panics if n < 1.
//
// An episode holds at most n−1 waiters, so both waiter buffers (one
// backing array) and the arrival times are sized for that once: the
// first episodes do not grow them by append.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic(fmt.Sprintf("spmd: barrier size %d", n))
	}
	most := n - 1
	w := make([]*task.Task, 2*most)
	return &Barrier{
		n:         n,
		waiters:   w[:0:most],
		released:  w[most:most],
		arrivedAt: make([]int64, 0, most),
	}
}

// Arrive implements task.Cond. The last arriver releases all waiters and
// proceeds immediately; earlier arrivers wait under their task's policy.
//
// The waker is the simulated machine; when it also implements
// trace.Emitter or metrics.Source (type-asserted here to avoid an
// import cycle on the sim package), arrivals and releases are traced
// and per-waiter wait durations feed the "barrier.wait_ns" histogram.
func (b *Barrier) Arrive(t *task.Task, w task.Waker) bool {
	em, tracing := w.(trace.Emitter)
	tracing = tracing && em.Tracing()
	if tracing {
		em.Emit(trace.Event{Kind: trace.KindBarrierArrive, Core: t.CoreID,
			Task: t.ID, TaskName: t.Name, N: b.n})
	}
	b.arrived++
	if b.arrived < b.n {
		b.waiters = append(b.waiters, t)
		b.arrivedAt = append(b.arrivedAt, w.Now())
		return false
	}
	// Episode complete: open the next generation before releasing, so
	// re-arrivals (a released thread racing around the loop at the same
	// timestamp) land in the new episode.
	b.arrived = 0
	b.gen++
	b.Crossings++
	if src, ok := w.(metrics.Source); ok {
		if reg := src.Metrics(); reg != nil {
			now := w.Now()
			h := reg.Histogram("barrier.wait_ns", waitBuckets)
			for _, at := range b.arrivedAt {
				h.Observe(float64(now - at))
			}
			h.Observe(0) // the last arriver does not wait
		}
	}
	if tracing {
		em.Emit(trace.Event{Kind: trace.KindBarrierRelease, Core: t.CoreID,
			Task: t.ID, TaskName: t.Name, N: b.n})
	}
	ws := b.waiters
	b.waiters = b.released[:0]
	b.arrivedAt = b.arrivedAt[:0]
	for _, wt := range ws {
		w.Release(wt)
	}
	clear(ws)
	b.released = ws[:0]
	return true
}

// Waiting returns how many parties are currently waiting.
func (b *Barrier) Waiting() int { return len(b.waiters) }

// Gen returns the current generation (completed episodes).
func (b *Barrier) Gen() int { return b.gen }
