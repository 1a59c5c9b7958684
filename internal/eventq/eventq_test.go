package eventq

import (
	"sort"
	"testing"
	"testing/quick"
)

// pushNew schedules a new event for fn at time at and returns it: the
// one-shot form of NewEvent and Schedule.
func pushNew(q *Queue, at Time, fn func(now Time)) *Event {
	e := NewEvent(fn)
	q.Schedule(e, at)
	return e
}

// pushNewOn is pushNew on sub-queue shard of s.
func pushNewOn(s *Sharded, shard int, at Time, fn func(now Time)) *Event {
	e := NewEvent(fn)
	s.Schedule(e, shard, at)
	return e
}

// Events pop in time order.
func TestPopOrder(t *testing.T) {
	var q Queue
	times := []Time{50, 10, 30, 20, 40}
	for _, at := range times {
		pushNew(&q, at, nil)
	}
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i, w := range want {
		e := q.Pop()
		if e == nil || e.At != w {
			t.Fatalf("pop %d: got %v, want %v", i, e, w)
		}
	}
	if q.Pop() != nil {
		t.Error("pop from empty queue returned event")
	}
}

// Same-time events fire in scheduling order (stability) — the
// determinism guarantee the simulator relies on.
func TestSameTimeStability(t *testing.T) {
	var q Queue
	var fired []int
	for i := 0; i < 100; i++ {
		i := i
		pushNew(&q, 7, func(Time) { fired = append(fired, i) })
	}
	for {
		e := q.Pop()
		if e == nil {
			break
		}
		e.Fire(e.At)
	}
	for i, v := range fired {
		if v != i {
			t.Fatalf("same-time order violated at %d: %v", i, fired[:i+1])
		}
	}
}

// Remove cancels exactly the chosen event, once.
func TestRemove(t *testing.T) {
	var q Queue
	a := pushNew(&q, 1, nil)
	b := pushNew(&q, 2, nil)
	c := pushNew(&q, 3, nil)
	if !q.Remove(b) {
		t.Fatal("Remove(b) = false")
	}
	if q.Remove(b) {
		t.Error("second Remove(b) = true")
	}
	if q.Len() != 2 {
		t.Fatalf("len %d, want 2", q.Len())
	}
	if e := q.Pop(); e != a {
		t.Errorf("first pop = %v, want a", e.At)
	}
	if e := q.Pop(); e != c {
		t.Errorf("second pop = %v, want c", e.At)
	}
	if q.Remove(a) {
		t.Error("Remove of popped event = true")
	}
	if q.Remove(nil) {
		t.Error("Remove(nil) = true")
	}
}

func TestPeek(t *testing.T) {
	var q Queue
	if q.Peek() != nil {
		t.Error("Peek on empty returned event")
	}
	pushNew(&q, 5, nil)
	pushNew(&q, 2, nil)
	if e := q.Peek(); e == nil || e.At != 2 {
		t.Errorf("Peek = %v, want at=2", e)
	}
	if q.Len() != 2 {
		t.Error("Peek consumed an event")
	}
}

// Property: for any sequence of pushes (with arbitrary times), popping
// everything yields a sorted-by-(time, insertion) sequence.
func TestPropertyHeapOrdering(t *testing.T) {
	f := func(times []int16) bool {
		var q Queue
		type rec struct {
			at  Time
			seq int
		}
		var want []rec
		for i, raw := range times {
			at := Time(raw)
			pushNew(&q, at, nil)
			want = append(want, rec{at, i})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		for i := range want {
			e := q.Pop()
			if e == nil || e.At != want[i].at {
				return false
			}
		}
		return q.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: interleaved removes keep the heap consistent.
func TestPropertyRemoveConsistency(t *testing.T) {
	f := func(times []int16, removeMask []bool) bool {
		var q Queue
		var events []*Event
		for _, raw := range times {
			events = append(events, pushNew(&q, Time(raw), nil))
		}
		removed := 0
		for i, e := range events {
			if i < len(removeMask) && removeMask[i] {
				if q.Remove(e) {
					removed++
				}
			}
		}
		if q.Len() != len(events)-removed {
			return false
		}
		last := Time(-1 << 62)
		for {
			e := q.Pop()
			if e == nil {
				break
			}
			if e.At < last {
				return false
			}
			last = e.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
