package eventq

import "testing"

// Schedule on a pending event moves it without re-allocating, and the
// fresh sequence number makes it fire after events already scheduled at
// the destination time — exactly as a remove+push would.
func TestScheduleMovesWithFreshSeq(t *testing.T) {
	var q Queue
	var fired []string
	mk := func(name string) *Event {
		return NewEvent(func(Time) { fired = append(fired, name) })
	}
	a, b, c := mk("a"), mk("b"), mk("c")
	q.Schedule(a, 10)
	q.Schedule(b, 20)
	q.Schedule(c, 30)
	// Move a from 10 to 20: it must now fire after b (scheduled at 20
	// earlier) even though a's original sequence number was lower.
	q.Schedule(a, 20)
	for {
		e := q.Pop()
		if e == nil {
			break
		}
		e.Fire(e.At)
	}
	want := []string{"b", "a", "c"}
	for i := range want {
		if i >= len(fired) || fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// Schedule works on fired (unqueued) events: the owner reschedules the
// same handle forever.
func TestScheduleReusesHandle(t *testing.T) {
	var q Queue
	n := 0
	e := NewEvent(func(Time) { n++ })
	for i := 0; i < 5; i++ {
		if e.Queued() {
			t.Fatalf("iteration %d: event still queued", i)
		}
		q.Schedule(e, Time(i))
		if !e.Queued() {
			t.Fatalf("iteration %d: Schedule left event unqueued", i)
		}
		if got := q.Pop(); got != e {
			t.Fatalf("iteration %d: Pop = %v, want the scheduled event", i, got)
		}
		e.Fire(e.At)
	}
	if n != 5 {
		t.Fatalf("fired %d times, want 5", n)
	}
}

// The hot path must not allocate once warm: caller-owned reschedules
// run allocation-free.
func TestHotPathAllocations(t *testing.T) {
	var q Queue
	fn := func(Time) {}
	e := NewEvent(fn)
	at := Time(0)
	if avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			at++
			q.Schedule(e, at)
		}
		q.Pop()
	}); avg != 0 {
		t.Errorf("owned-event reschedule: %v allocs/run, want 0", avg)
	}
}
