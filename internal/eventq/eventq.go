// Package eventq implements the time-ordered event queue at the heart of
// the discrete-event simulator.
//
// Events are ordered by (time, sequence): the sequence number is assigned
// at scheduling time, so two events scheduled for the same instant fire in
// the order they were scheduled. That stability matters for determinism —
// without it, heap sibling order would decide whether, say, a balancer
// fires before or after a barrier release at the same nanosecond.
//
// The queue is the simulator's hottest allocation site, so it supports an
// allocation-lean usage pattern on top of the classic Push/Pop:
// caller-owned events (NewEvent + Schedule). A periodic timer — a core's
// stop event, a balancer wake — allocates its Event and its callback
// once and reschedules the same handle forever. Schedule moves a
// still-pending event inside the heap without re-allocating, assigning a
// fresh sequence number so same-time ordering follows the scheduling
// order exactly as a remove+push would.
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

	seq   uint64
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

// Queue is a min-heap of events. The zero value is an empty queue ready
// to use.
type Queue struct {
	heap []*Event
	seq  uint64
}

// Len returns the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn to fire at time at and returns the event handle,
// which can be passed to Remove to cancel it. The event is allocated
// fresh and never reused, so the handle stays valid indefinitely.
func (q *Queue) Push(at Time, fn func(now Time)) *Event {
	e := &Event{At: at, Fire: fn}
	q.push(e)
	return e
}

// Schedule inserts a caller-owned event at time at, or — if the event is
// still pending — moves it there, re-allocating nothing. Either way the
// event receives a fresh sequence number: among events at the same time it
// fires in the order of the Schedule/Push calls, exactly as if it had
// been removed and re-pushed.
func (q *Queue) Schedule(e *Event, at Time) {
	if e.index >= 0 && q.heap[e.index] == e {
		e.At = at
		e.seq = q.seq
		q.seq++
		q.down(e.index)
		q.up(e.index)
		return
	}
	e.At = at
	q.push(e)
}

func (q *Queue) push(e *Event) {
	e.seq = q.seq
	q.seq++
	e.index = len(q.heap)
	q.heap = append(q.heap, e)
	q.up(e.index)
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	top.index = -1
	return top
}

// Peek returns the earliest event without removing it, or nil.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0]
}

// Remove cancels a pending event. It is a no-op if the event has already
// fired or been removed. It returns whether the event was removed.
func (q *Queue) Remove(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index] != e {
		return false
	}
	i := e.index
	last := len(q.heap) - 1
	q.swap(i, last)
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	e.index = -1
	return true
}

// less orders by time, then by scheduling sequence.
func (q *Queue) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.heap[i].index = i
	q.heap[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.heap)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && q.less(right, left) {
			child = right
		}
		if !q.less(child, i) {
			break
		}
		q.swap(i, child)
		i = child
	}
}
