package eventq

import (
	"fmt"
	"math"
)

// Sharded is a partitioned event queue: one sub-queue per machine shard
// plus a control sub-queue for global (machine-wide) events, all sharing
// a single scheduling-sequence counter.
//
// Determinism contract: in sequential operation every push — whichever
// sub-queue it lands in — draws the next value of the shared sequence
// counter, and Pop returns the globally earliest event by (time, seq).
// Because (time, seq) is exactly the order a single Queue would produce,
// a machine draining a Sharded queue one event at a time fires events in
// the byte-identical order of the unsharded simulator, for any shard
// count. The partition only changes which heap an event sits in — never
// when it fires.
//
// Parallel windows: between two global events, shard sub-queues hold
// only shard-local work, so shard workers may drain their own sub-queues
// concurrently (Machine arranges the preconditions). BeginWindow hands
// each sub-queue an independent sequence stream seeded from the shared
// counter; EndWindow folds the streams back. Sequence values may then
// collide across shards, so cross-shard ordering falls back to the shard
// index — a deterministic tie-break that is only ever consulted for
// events scheduled by concurrent shard workers, whose cross-shard order
// is unobservable by construction (isolated shards, tracing off).
type Sharded struct {
	qs  []Queue
	seq uint64
	// window is true while shard workers own their sub-queues. It is
	// written only with no workers running (BeginWindow/EndWindow), so
	// reads from workers are race-free.
	window bool
}

// NewSharded returns a queue partitioned into shards sub-queues plus the
// control sub-queue. shards must be at least 1.
func NewSharded(shards int) *Sharded {
	if shards < 1 {
		panic(fmt.Sprintf("eventq: shard count %d < 1", shards))
	}
	return &Sharded{qs: make([]Queue, shards+1)}
}

// Shards returns the number of shard sub-queues (excluding control).
func (s *Sharded) Shards() int { return len(s.qs) - 1 }

// Global returns the index of the control sub-queue, used for events
// that are not bound to one shard. Global events are the synchronization
// horizons of parallel windows.
func (s *Sharded) Global() int { return len(s.qs) - 1 }

// Len returns the number of pending events across all sub-queues.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.qs {
		n += s.qs[i].Len()
	}
	return n
}

// ShardLen returns the number of pending events in one sub-queue.
func (s *Sharded) ShardLen(shard int) int { return s.qs[shard].Len() }

// ShardPeek returns the earliest event of one sub-queue, or nil.
func (s *Sharded) ShardPeek(shard int) *Event { return s.qs[shard].Peek() }

// Schedule inserts or moves a caller-owned event to time at on the given
// sub-queue. An event still pending on a different sub-queue is removed
// there first, so one reusable timer may follow its task across shards.
func (s *Sharded) Schedule(e *Event, shard int, at Time) {
	if e.index >= 0 && int(e.shard) != shard {
		s.qs[e.shard].Remove(e)
	}
	q := s.checkout(shard)
	q.Schedule(e, at)
	e.shard = int32(shard)
	s.checkin(shard)
}

// Remove cancels a pending event wherever it sits. It reports whether
// the event was removed.
func (s *Sharded) Remove(e *Event) bool {
	if e == nil {
		return false
	}
	return s.qs[e.shard].Remove(e)
}

// Pop removes and returns the globally earliest event by (time, seq,
// shard), or nil.
func (s *Sharded) Pop() *Event { return s.PopUntil(math.MaxInt64) }

// PopUntil removes and returns the globally earliest event if it fires
// at or before limit, else nil. It scans the sub-queue heads once, so a
// caller draining up to a time limit pays one scan per event.
func (s *Sharded) PopUntil(limit Time) *Event {
	i := s.min()
	if i < 0 || s.qs[i].heap[0].at > limit {
		return nil
	}
	return s.qs[i].Pop()
}

// PeekGlobal returns the earliest control-queue event, or nil. Its time
// is the conservative-lookahead horizon: no cross-shard interaction can
// occur strictly before it.
func (s *Sharded) PeekGlobal() *Event { return s.qs[s.Global()].Peek() }

// min returns the index of the sub-queue holding the globally earliest
// event, or -1 when every sub-queue is empty. Sequence values collide
// across shards only for events scheduled inside a parallel window; the
// lower shard index wins such a tie.
func (s *Sharded) min() int {
	bi := -1
	var best *slot
	for i := range s.qs {
		h := s.qs[i].heap
		if len(h) == 0 {
			continue
		}
		if best == nil || h[0].before(best) {
			best, bi = &h[0], i
		}
	}
	return bi
}

// checkout hands the shared sequence counter to a sub-queue before a
// scheduling operation; checkin takes the advanced value back. During a
// parallel window the sub-queues keep their independent streams instead,
// and global pushes are forbidden — a global event appearing before the
// horizon would invalidate the lookahead that justified the window.
func (s *Sharded) checkout(shard int) *Queue {
	q := &s.qs[shard]
	if s.window {
		if shard == s.Global() {
			panic("eventq: global event scheduled inside a parallel shard window")
		}
		return q
	}
	q.seq = s.seq
	return q
}

func (s *Sharded) checkin(shard int) {
	if !s.window {
		s.seq = s.qs[shard].seq
	}
}

// BeginWindow switches the queue into parallel-window mode: each shard
// sub-queue continues from the current shared sequence value on its own
// independent stream, so concurrent workers never contend on the shared
// counter. The caller must guarantee no worker is running when this is
// called.
func (s *Sharded) BeginWindow() {
	for i := 0; i < s.Global(); i++ {
		s.qs[i].seq = s.seq
	}
	s.window = true
}

// EndWindow returns to sequential mode, folding the per-shard sequence
// streams back into the shared counter (their maximum, so sequence
// values keep strictly increasing). The caller must guarantee all
// workers have stopped.
func (s *Sharded) EndWindow() {
	s.window = false
	for i := 0; i < s.Global(); i++ {
		if s.qs[i].seq > s.seq {
			s.seq = s.qs[i].seq
		}
	}
}

// ShardPopBefore removes and returns the earliest event of one sub-queue
// if it fires strictly before horizon, else nil. It is the drain
// primitive of parallel shard workers: each worker owns exactly one
// sub-queue for the duration of a window.
func (s *Sharded) ShardPopBefore(shard int, horizon Time) *Event {
	q := &s.qs[shard]
	if len(q.heap) == 0 || q.heap[0].at >= horizon {
		return nil
	}
	return q.Pop()
}
