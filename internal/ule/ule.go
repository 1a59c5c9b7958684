// Package ule models the FreeBSD 7.2 ULE scheduler's load balancing
// (§2): per-core queues managed event-driven, with a combination of pull
// and push migration.
//
// The push balancer runs twice a second and moves a thread from the
// highest-loaded queue to the lightest-loaded queue. In the default
// configuration it will not migrate when a static balance is not
// attainable (a one-thread imbalance is left alone); setting
// StealThreshold to 1 mimics kern.sched.steal_thresh=1, which the paper
// tried without observing benefits for parallel workloads. Idle cores
// pull from queues holding at least two threads.
//
// ULE's per-core time sharing is close enough to fair that we reuse the
// CFS per-core policy underneath; only the balancing (this package)
// differs — which is the axis the paper evaluates.
package ule

import (
	"time"

	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// PushInterval is the push balancer period ("runs twice a second").
const PushInterval = 500 * time.Millisecond

// Config tunes the balancer.
type Config struct {
	// StealThreshold is the minimum queue length an idle core steals
	// from (kern.sched.steal_thresh; 2 by default).
	StealThreshold int
	// MinImbalance is the queue-length difference required for a push
	// (2 by default: a static balance must be improvable).
	MinImbalance int
}

// DefaultConfig returns the FreeBSD 7.2 defaults.
func DefaultConfig() Config {
	return Config{
		StealThreshold: 2,
		MinImbalance:   2,
	}
}

// Balancer is the ULE load balancer actor.
type Balancer struct {
	cfg Config
	m   *sim.Machine
	rng *xrand.RNG

	// pushTimer is the reusable push-balancer timer.
	pushTimer *sim.Timer
	// steals[j] is steal's search state for pulls into core j, with its
	// visitor bound once at Start so a steal allocates nothing. It is
	// per core because idle steals run on the worker of the idling
	// core's shard.
	steals []stealScan

	// Pushes and Pulls count balancing actions.
	Pushes, Pulls int
}

// New creates the balancer.
func New(cfg Config) *Balancer {
	d := DefaultConfig()
	if cfg.StealThreshold == 0 {
		cfg.StealThreshold = d.StealThreshold
	}
	if cfg.MinImbalance == 0 {
		cfg.MinImbalance = d.MinImbalance
	}
	return &Balancer{cfg: cfg}
}

// Default creates the balancer with DefaultConfig.
func Default() *Balancer { return New(DefaultConfig()) }

// Start implements sim.Actor.
func (b *Balancer) Start(m *sim.Machine) {
	b.m = m
	b.rng = m.RNG()
	b.steals = make([]stealScan, len(m.Cores))
	for id := range b.steals {
		sc := &b.steals[id]
		sc.dst = id
		sc.visit = sc.consider
	}
	m.OnIdle(b.idled)
	b.pushTimer = m.NewTimer(func(now int64) {
		b.push(now)
		b.pushTimer.Schedule(now + int64(PushInterval))
	})
	b.pushTimer.Schedule(m.Now() + int64(PushInterval))
}

// push moves one thread from the most to the least loaded queue when the
// imbalance is at least MinImbalance.
func (b *Balancer) push(now int64) {
	var hi, lo *sim.Core
	for _, c := range b.m.Cores {
		if !c.Online() {
			// An offline queue holds nothing and must receive nothing.
			continue
		}
		if hi == nil || c.NrRunnable() > hi.NrRunnable() {
			hi = c
		}
		if lo == nil || c.NrRunnable() < lo.NrRunnable() {
			lo = c
		}
	}
	if hi == nil || lo == nil || hi == lo {
		return
	}
	tr := b.m.Tracing()
	if tr {
		b.m.Emit(trace.Event{Kind: trace.KindBalanceWake, Core: hi.ID(), Label: "ule-push"})
	}
	if hi.NrRunnable()-lo.NrRunnable() < b.cfg.MinImbalance {
		if tr {
			b.traceSkip(hi.ID(), "ule-push", "below-min-imbalance")
		}
		return
	}
	if t := b.steal(hi, lo.ID()); t != nil {
		b.m.Migrate(t, lo.ID(), "ule")
		b.Pushes++
	} else if tr {
		b.traceSkip(hi.ID(), "ule-push", "no-stealable-thread")
	}
}

// idled is ULE's tdq_idled: an idle core steals from a loaded queue.
func (b *Balancer) idled(c *sim.Core) {
	var busiest *sim.Core
	for _, o := range b.m.Cores {
		if o == c || !o.Online() || o.NrRunnable() < b.cfg.StealThreshold {
			continue
		}
		if busiest == nil || o.NrRunnable() > busiest.NrRunnable() {
			busiest = o
		}
	}
	if busiest == nil {
		return
	}
	if t := b.steal(busiest, c.ID()); t != nil {
		b.m.Migrate(t, c.ID(), "ule-pull")
		b.Pulls++
	} else if b.m.Tracing() {
		b.traceSkip(c.ID(), "ule-pull", "no-stealable-thread")
	}
}

// traceSkip records a balancing pass that moved nothing.
func (b *Balancer) traceSkip(core int, label, reason string) {
	b.m.Emit(trace.Event{Kind: trace.KindBalanceSkip, Core: core, Src: core,
		Label: label, Reason: reason})
}

// steal picks a migratable queued thread from src that may run on dst.
func (b *Balancer) steal(src *sim.Core, dst int) *task.Task {
	sc := &b.steals[dst]
	src.Scheduler().EachQueued(sc.visit)
	pick := sc.pick
	sc.pick = nil
	return pick
}

// stealScan is steal's search state for one destination core.
type stealScan struct {
	dst   int
	pick  *task.Task
	visit func(t *task.Task) bool
}

// consider picks the first queued thread allowed on dst.
func (sc *stealScan) consider(t *task.Task) bool {
	if t.Affinity.Has(sc.dst) {
		sc.pick = t
		return false
	}
	return true
}
