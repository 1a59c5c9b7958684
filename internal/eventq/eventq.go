// Package eventq implements the time-ordered event queue at the heart of
// the discrete-event simulator.
//
// Events are ordered by (time, sequence): the sequence number is assigned
// at scheduling time, so two events scheduled for the same instant fire in
// the order they were scheduled. That stability matters for determinism —
// without it, heap sibling order would decide whether, say, a balancer
// fires before or after a barrier release at the same nanosecond.
//
// The queue is a plain binary heap whose slots carry their event's
// (time, sequence) key inline, so sifting compares slots without
// dereferencing an Event. Keys are unique, so the pop order is a total
// order any correct heap reproduces. Sharded compares the head slots of
// its sub-queues the same way, and PopUntil finds and removes the
// earliest event in one scan of those heads.
//
// The queue is the simulator's hottest allocation site, so every event
// is caller-owned (NewEvent + Schedule). A periodic timer — a core's
// stop event, a balancer wake — allocates its Event and its callback
// once and reschedules the same handle forever. Schedule moves a
// still-pending event inside the heap without re-allocating, assigning a
// fresh sequence number so same-time ordering follows the scheduling
// order exactly as a remove and re-insert would.
package eventq

// Time is an absolute simulation time in nanoseconds since the start of
// the run. It is an alias of int64 (not a defined type) so that callbacks
// written against the simulator's int64 clock are assignable without a
// wrapping closure per scheduled event.
type Time = int64

// Event is a scheduled callback. Fire is invoked with the event's time.
type Event struct {
	At   Time
	Fire func(now Time)

	index int // heap index, -1 when not queued
	// shard is the index of the Sharded sub-queue holding (or last
	// holding) the event; 0 for events in a plain Queue.
	shard int32
}

// NewEvent returns an unqueued event with the given callback, for callers
// that schedule one timer repeatedly: allocate once, then Schedule it as
// often as needed.
func NewEvent(fn func(now Time)) *Event {
	return &Event{Fire: fn, index: -1}
}

// Queued reports whether the event is currently pending in a queue.
func (e *Event) Queued() bool { return e.index >= 0 }

// slot is one heap entry: the event and a copy of its ordering key.
// at always equals e.At.
type slot struct {
	at  Time
	seq uint64
	e   *Event
}

// before orders slots by time, then by scheduling sequence.
func (a *slot) before(b *slot) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Queue is a min-heap of events. The zero value is an empty queue ready
// to use.
type Queue struct {
	heap []slot
	seq  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Schedule inserts a caller-owned event at time at, or — if the event is
// still pending — moves it there, re-allocating nothing. Either way the
// event receives a fresh sequence number: among events at the same time it
// fires in the order of the Schedule calls, exactly as if it had been
// removed and re-inserted.
func (q *Queue) Schedule(e *Event, at Time) {
	e.At = at
	if i := e.index; i >= 0 && i < len(q.heap) && q.heap[i].e == e {
		// Only a smaller key can move up and only a larger one down.
		s := &q.heap[i]
		old := *s
		s.at, s.seq = at, q.seq
		q.seq++
		if s.before(&old) {
			q.up(i)
		} else {
			q.down(i)
		}
		return
	}
	q.push(e)
}

func (q *Queue) push(e *Event) {
	i := len(q.heap)
	q.heap = append(q.heap, slot{at: e.At, seq: q.seq, e: e})
	q.seq++
	q.up(i)
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0].e
	q.removeAt(0)
	return top
}

// Peek returns the earliest event without removing it, or nil.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0].e
}

// Remove cancels a pending event. It is a no-op if the event has already
// fired or been removed. It returns whether the event was removed.
func (q *Queue) Remove(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index].e != e {
		return false
	}
	q.removeAt(e.index)
	return true
}

// removeAt takes slot i out of the heap, fills the hole with the last
// slot, sifts that slot whichever way its key needs, and marks the
// removed event unqueued.
func (q *Queue) removeAt(i int) {
	e := q.heap[i].e
	last := len(q.heap) - 1
	q.heap[i] = q.heap[last]
	q.heap[last] = slot{}
	q.heap = q.heap[:last]
	if i < last && !q.down(i) {
		q.up(i)
	}
	e.index = -1
}

// up sifts slot i toward the root, moving each larger parent down one
// level and writing the slot once at its final position.
func (q *Queue) up(i int) {
	h := q.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		h[i].e.index = i
		i = p
	}
	h[i] = x
	x.e.index = i
}

// down sifts slot i toward the leaves the same way and reports whether
// it moved.
func (q *Queue) down(i0 int) bool {
	h := q.heap
	n := len(h)
	x := h[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&x) {
			break
		}
		h[i] = h[c]
		h[i].e.index = i
		i = c
	}
	h[i] = x
	x.e.index = i
	return i > i0
}
