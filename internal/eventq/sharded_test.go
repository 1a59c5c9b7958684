package eventq

import (
	"fmt"
	"math/rand"
	"testing"
)

// popRecord is one fired event in a drain, captured for order comparison.
type popRecord struct {
	at   Time
	name string
}

// mirror drives a single Queue and a Sharded queue through the same
// randomized schedule of operations and returns both pop logs. Events are
// assigned to shards round-robin by id — the partition must not matter.
func mirror(t *testing.T, seed int64, shards, ops int) (single, sharded []popRecord) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	q := &Queue{}
	s := NewSharded(shards)

	type pair struct {
		se, sh *Event
		name   string
	}
	var live []*pair // caller-owned, possibly pending
	now := Time(0)
	id := 0

	record := func(log *[]popRecord, name string) func(Time) {
		return func(at Time) { *log = append(*log, popRecord{at, name}) }
	}

	for op := 0; op < ops; op++ {
		switch k := rng.Intn(10); {
		case k < 3: // schedule a new event
			at := now + Time(rng.Intn(50))
			name := fmt.Sprintf("push%d", id)
			shard := id % (shards + 1) // sometimes the global queue
			p := &pair{name: name}
			p.se = pushNew(q, at, record(&single, name))
			p.sh = pushNewOn(s, shard, at, record(&sharded, name))
			live = append(live, p)
			id++
		case k < 5: // a new event, fire-and-forget (no handle kept)
			at := now + Time(rng.Intn(50))
			name := fmt.Sprintf("forget%d", id)
			shard := id % shards
			pushNew(q, at, record(&single, name))
			pushNewOn(s, shard, at, record(&sharded, name))
			id++
		case k < 7 && len(live) > 0: // Schedule (move or re-insert)
			p := live[rng.Intn(len(live))]
			at := now + Time(rng.Intn(50))
			// Re-route to a different shard half the time.
			shard := id % shards
			q.Schedule(p.se, at)
			s.Schedule(p.sh, shard, at)
			id++
		case k < 8 && len(live) > 0: // Remove
			i := rng.Intn(len(live))
			p := live[i]
			r1 := q.Remove(p.se)
			r2 := s.Remove(p.sh)
			if r1 != r2 {
				t.Fatalf("Remove(%s): single=%v sharded=%v", p.name, r1, r2)
			}
			live = append(live[:i], live[i+1:]...)
		default: // Pop one event from each
			e1, e2 := q.Pop(), s.Pop()
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("pop mismatch: single=%v sharded=%v", e1, e2)
			}
			if e1 != nil {
				if e1.At > now {
					now = e1.At
				}
				e1.Fire(e1.At)
				e2.Fire(e2.At)
			}
		}
		if q.Len() != s.Len() {
			t.Fatalf("op %d: Len single=%d sharded=%d", op, q.Len(), s.Len())
		}
	}
	// Drain both fully.
	for {
		e1, e2 := q.Pop(), s.Pop()
		if (e1 == nil) != (e2 == nil) {
			t.Fatalf("drain mismatch: single=%v sharded=%v", e1, e2)
		}
		if e1 == nil {
			break
		}
		e1.Fire(e1.At)
		e2.Fire(e2.At)
	}
	return single, sharded
}

// TestShardedMatchesSingleQueue is the core determinism property of the
// sharded engine: for any shard count and any interleaving of new events,
// Schedule, Remove and Pop, the sharded queue pops events in
// exactly the order a single queue does.
func TestShardedMatchesSingleQueue(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 7, 16} {
		shards := shards
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				single, sharded := mirror(t, seed, shards, 400)
				if len(single) != len(sharded) {
					t.Fatalf("seed %d: fired %d vs %d events", seed, len(single), len(sharded))
				}
				for i := range single {
					if single[i] != sharded[i] {
						t.Fatalf("seed %d: event %d: single fired %v, sharded fired %v",
							seed, i, single[i], sharded[i])
					}
				}
			}
		})
	}
}

// TestShardedScheduleReroutes proves a caller-owned event moves between
// sub-queues when rescheduled with a different shard.
func TestShardedScheduleReroutes(t *testing.T) {
	s := NewSharded(4)
	fired := 0
	e := NewEvent(func(now Time) { fired++ })
	s.Schedule(e, 0, 10)
	if s.ShardLen(0) != 1 {
		t.Fatalf("shard 0 len = %d", s.ShardLen(0))
	}
	s.Schedule(e, 3, 5)
	if s.ShardLen(0) != 0 || s.ShardLen(3) != 1 {
		t.Fatalf("after reroute: shard0=%d shard3=%d", s.ShardLen(0), s.ShardLen(3))
	}
	got := s.Pop()
	if got != e || got.At != 5 {
		t.Fatalf("Pop = %v", got)
	}
	got.Fire(got.At)
	if fired != 1 {
		t.Fatalf("fired = %d", fired)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d", s.Len())
	}
}

// TestShardedGlobalHorizon checks PeekGlobal sees only control events.
func TestShardedGlobalHorizon(t *testing.T) {
	s := NewSharded(2)
	pushNewOn(s, 0, 5, func(Time) {})
	pushNewOn(s, 1, 7, func(Time) {})
	if g := s.PeekGlobal(); g != nil {
		t.Fatalf("PeekGlobal = %v with no global events", g)
	}
	pushNewOn(s, s.Global(), 9, func(Time) {})
	g := s.PeekGlobal()
	if g == nil || g.At != 9 {
		t.Fatalf("PeekGlobal = %v, want At=9", g)
	}
	// The global event must still lose to earlier shard events in Pop.
	if e := s.Pop(); e == nil || e.At != 5 {
		t.Fatalf("Pop = %v, want At=5", e)
	}
}

// TestShardedWindow exercises the parallel-window protocol sequentially:
// per-shard sequence streams during the window, deterministic fold-back,
// and the global-push tripwire.
func TestShardedWindow(t *testing.T) {
	s := NewSharded(2)
	var log []popRecord
	rec := func(name string) func(Time) {
		return func(at Time) { log = append(log, popRecord{at, name}) }
	}
	pushNewOn(s, s.Global(), 100, rec("horizon"))

	s.BeginWindow()
	// Each shard schedules its own work; same-time cross-shard order is
	// decided by shard index.
	pushNewOn(s, 1, 10, rec("b"))
	pushNewOn(s, 0, 10, rec("a"))
	pushNewOn(s, 0, 20, rec("c"))
	horizon := s.PeekGlobal().At
	for shard := 0; shard < s.Shards(); shard++ {
		for {
			e := s.ShardPopBefore(shard, horizon)
			if e == nil {
				break
			}
			e.Fire(e.At)
		}
	}
	s.EndWindow()

	// Shard-major drain order: shard 0 fully drains before shard 1 here,
	// but within a shard time order holds.
	want := []popRecord{{10, "a"}, {20, "c"}, {10, "b"}}
	if len(log) != len(want) {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}

	// After the window, sequencing resumes globally and deterministically.
	pushNewOn(s, 0, 50, rec("d"))
	for {
		e := s.Pop()
		if e == nil {
			break
		}
		e.Fire(e.At)
	}
	if log[len(log)-2].name != "d" || log[len(log)-1].name != "horizon" {
		t.Fatalf("tail of log = %v", log[len(log)-2:])
	}

	// Global pushes inside a window must panic: they would invalidate
	// the lookahead horizon.
	s.BeginWindow()
	defer s.EndWindow()
	defer func() {
		if recover() == nil {
			t.Error("no panic for global push inside a window")
		}
	}()
	pushNewOn(s, s.Global(), 999, func(Time) {})
}

// TestShardedPopTieBreak pins the cross-heap tie-break: equal (At, seq)
// — only possible from window mode — resolves by shard index.
func TestShardedPopTieBreak(t *testing.T) {
	s := NewSharded(3)
	s.BeginWindow()
	// All three shards start from the same seq base, so these collide
	// on both At and seq.
	pushNewOn(s, 2, 10, func(Time) {})
	pushNewOn(s, 0, 10, func(Time) {})
	pushNewOn(s, 1, 10, func(Time) {})
	s.EndWindow()
	var order []int32
	for e := s.Pop(); e != nil; e = s.Pop() {
		order = append(order, e.shard)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("pop order = %v, want [0 1 2]", order)
	}
}
