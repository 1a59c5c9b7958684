package eventq

import (
	"testing"
)

// The fuzz targets interpret the input as a little op script — 3-byte
// chunks of (opcode, argA, argB) — driving the real queue alongside a
// trivially-correct model, and fail on the first observable divergence.
// They are the adversarial complement of the unit tests: the corpus
// under testdata/fuzz/ pins the interleavings that matter (same-time
// pushes, reschedule of a pending event, fire-and-forget pushes,
// cross-shard moves, window entry on timestamp ties), and fuzzing mines
// for new ones. CI runs each target briefly (-fuzztime) on every push.

// checkHeap fails the test unless q's slots are in heap order by their
// inline keys, each slot's event records the slot's index, and each
// slot's inline time equals its event's At.
func checkHeap(t *testing.T, q *Queue) {
	for i := range q.heap {
		s := &q.heap[i]
		if s.e.index != i {
			t.Fatalf("slot %d holds an event whose index is %d", i, s.e.index)
		}
		if s.at != s.e.At {
			t.Fatalf("slot %d keys time %d, its event's At is %d", i, s.at, s.e.At)
		}
		if p := &q.heap[(i-1)/2]; i > 0 && s.before(p) {
			t.Fatalf("slot %d (%d, %d) sorts before its parent (%d, %d)", i, s.at, s.seq, p.at, p.seq)
		}
	}
}

// checkSharded runs checkHeap on every sub-queue of s and checks that
// each queued event records the sub-queue holding it.
func checkSharded(t *testing.T, s *Sharded) {
	for i := range s.qs {
		checkHeap(t, &s.qs[i])
		for _, sl := range s.qs[i].heap {
			if int(sl.e.shard) != i {
				t.Fatalf("event in sub-queue %d records shard %d", i, sl.e.shard)
			}
		}
	}
}

// refModel is the oracle for FuzzEventQueue: a flat list ordered by
// nothing, searched linearly for the (At, seq) minimum — too slow to
// ship, too simple to be wrong.
type refModel struct {
	ids  map[int]Time // id → scheduled time
	seqs map[int]int  // id → model sequence of last scheduling
	next int
}

func newRefModel() *refModel {
	return &refModel{ids: map[int]Time{}, seqs: map[int]int{}}
}

func (r *refModel) push(id int, at Time) {
	r.ids[id] = at
	r.seqs[id] = r.next
	r.next++
}

func (r *refModel) remove(id int) bool {
	if _, ok := r.ids[id]; !ok {
		return false
	}
	delete(r.ids, id)
	delete(r.seqs, id)
	return true
}

// min returns the id of the earliest (At, seq) pending event, or -1.
func (r *refModel) min() int {
	best, bestAt, bestSeq := -1, Time(0), 0
	for id, at := range r.ids {
		if best == -1 || at < bestAt || (at == bestAt && r.seqs[id] < bestSeq) {
			best, bestAt, bestSeq = id, at, r.seqs[id]
		}
	}
	return best
}

// FuzzEventQueue drives a single Queue through arbitrary
// push/pop/reschedule/remove interleavings against the reference model:
// every Pop and Peek must return exactly the event the model predicts,
// including sequence-stable ordering of same-time events.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{})
	// Same-time pushes must pop in push order.
	f.Add([]byte{0, 5, 0, 0, 5, 0, 0, 5, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Fire-and-forget push, pop, another fire-and-forget push.
	f.Add([]byte{1, 3, 0, 2, 0, 0, 1, 3, 0, 2, 0, 0})
	// Reschedule a pending event behind a same-time rival.
	f.Add([]byte{0, 9, 0, 0, 9, 0, 3, 0, 9, 2, 0, 0, 2, 0, 0})
	// Remove, then pop the survivor.
	f.Add([]byte{0, 4, 0, 0, 6, 0, 4, 0, 0, 2, 0, 0})
	// Reschedule the last leaf of a three-level heap to an earlier time
	// than the root: it must sift all the way up.
	f.Add([]byte{0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0, 13, 0, 0, 14, 0, 0, 15, 0, 0, 16,
		3, 6, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Reschedule the root to its own time: the fresh sequence number
	// puts it behind its same-time child, so it must sift down.
	f.Add([]byte{0, 0, 5, 0, 0, 5, 0, 0, 9, 3, 0, 5, 2, 0, 0, 2, 0, 0, 2, 0, 0})

	f.Fuzz(func(t *testing.T, script []byte) {
		var q Queue
		model := newRefModel()
		idOf := map[*Event]int{}
		var owned []*Event // handles eligible for Schedule/Remove
		nextID := 0

		popAndCheck := func() {
			want := model.min()
			e := q.Pop()
			if e == nil {
				if want != -1 {
					t.Fatalf("Pop = nil, model has event %d pending", want)
				}
				return
			}
			got, ok := idOf[e]
			if !ok {
				t.Fatalf("Pop returned an event the harness never pushed")
			}
			if got != want {
				t.Fatalf("Pop = event %d (at=%d), model wants event %d (at=%d)",
					got, e.At, want, model.ids[want])
			}
			model.remove(got)
			delete(idOf, e)
		}

		for i := 0; i+2 < len(script); i += 3 {
			checkHeap(t, &q)
			op, a, b := script[i]%6, script[i+1], script[i+2]
			at := Time(b % 64)
			switch op {
			case 0: // owned push
				e := pushNew(&q, at, func(Time) {})
				idOf[e] = nextID
				owned = append(owned, e)
				model.push(nextID, at)
				nextID++
			case 1: // fire-and-forget push (handle never rescheduled)
				e := pushNew(&q, at, func(Time) {})
				idOf[e] = nextID
				model.push(nextID, at)
				nextID++
			case 2:
				popAndCheck()
			case 3: // reschedule an owned event (pending or fired)
				if len(owned) == 0 {
					continue
				}
				e := owned[int(a)%len(owned)]
				id := idOf[e]
				if e.Queued() {
					model.remove(id)
				} else {
					// Re-inserting a fired handle is a fresh logical event.
					idOf[e] = nextID
					id = nextID
					nextID++
				}
				q.Schedule(e, at)
				model.push(id, at)
			case 4: // remove an owned event
				if len(owned) == 0 {
					continue
				}
				e := owned[int(a)%len(owned)]
				id, pending := idOf[e]
				got := q.Remove(e)
				if !pending {
					// The handle already fired: Remove must decline.
					if got {
						t.Fatalf("Remove returned true for a fired event")
					}
					continue
				}
				want := model.remove(id)
				if got != want {
					t.Fatalf("Remove(event %d) = %v, model says %v", id, got, want)
				}
				if got {
					delete(idOf, e)
				}
			case 5: // peek
				want := model.min()
				e := q.Peek()
				if (e == nil) != (want == -1) {
					t.Fatalf("Peek nil-ness disagrees with model (want event %d)", want)
				}
				if e != nil && idOf[e] != want {
					t.Fatalf("Peek = event %d, model wants %d", idOf[e], want)
				}
			}
		}
		// Drain: the complete remaining order must match the model.
		for q.Len() > 0 || model.min() != -1 {
			checkHeap(t, &q)
			popAndCheck()
		}
		checkHeap(t, &q)
	})
}

// FuzzShardMerge drives a Sharded queue and a plain Queue through the
// same operation sequence — every event pushed to some shard of one and
// to the other — and requires identical pop order: the partition must
// never change when an event fires, whatever the shard count, including
// on cross-shard timestamp ties and events rescheduled across shards.
// A final window phase checks the parallel-drain primitives: shard pops
// stay below the horizon and in shard-local order, and the sequence
// fold keeps post-window pushes globally ordered.
func FuzzShardMerge(f *testing.F) {
	f.Add(byte(2), []byte{})
	// Cross-shard timestamp tie: two shards, same time, push order wins.
	f.Add(byte(2), []byte{0, 0, 7, 0, 1, 7, 2, 0, 0, 2, 0, 0})
	// Reschedule moves an event to another shard.
	f.Add(byte(3), []byte{0, 0, 9, 3, 0, 70, 2, 0, 0})
	// Global (control) events interleaved with shard events.
	f.Add(byte(2), []byte{0, 2, 5, 0, 0, 5, 2, 0, 0, 2, 0, 0})
	// Fire-and-forget events across shards.
	f.Add(byte(4), []byte{1, 0, 3, 1, 1, 3, 2, 0, 0, 1, 2, 3, 2, 0, 0, 2, 0, 0})
	// Reschedule the last leaf of a three-level sub-queue to an earlier
	// time than its root.
	f.Add(byte(0), []byte{0, 0, 10, 0, 0, 11, 0, 0, 12, 0, 0, 13, 0, 0, 14, 0, 0, 15, 0, 0, 16,
		3, 6, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0})
	// Reschedule a sub-queue's root to its own time, behind its
	// same-time child.
	f.Add(byte(1), []byte{0, 0, 5, 0, 0, 5, 0, 0, 9, 3, 0, 5, 2, 0, 0, 2, 0, 0, 2, 0, 0})

	f.Fuzz(func(t *testing.T, shardsByte byte, script []byte) {
		nsh := 1 + int(shardsByte%4)
		s := NewSharded(nsh)
		var oracle Queue
		type pair struct {
			se, oe *Event
			id     int
		}
		idOfS := map[*Event]*pair{}
		var owned []*pair
		nextID := 0
		shardOf := func(b byte) int { return int(b) % (nsh + 1) } // includes Global

		popBoth := func() {
			se, oe := s.Pop(), oracle.Pop()
			if (se == nil) != (oe == nil) {
				t.Fatalf("Pop: sharded=%v oracle=%v", se != nil, oe != nil)
			}
			if se == nil {
				return
			}
			p := idOfS[se]
			if p == nil {
				t.Fatalf("sharded Pop returned an unknown event")
			}
			if p.oe != oe {
				t.Fatalf("pop order diverged: sharded popped event %d (at=%d), oracle popped at=%d",
					p.id, se.At, oe.At)
			}
			if se.At != oe.At {
				t.Fatalf("event %d times disagree: %d vs %d", p.id, se.At, oe.At)
			}
			delete(idOfS, se)
		}

		for i := 0; i+2 < len(script); i += 3 {
			checkSharded(t, s)
			checkHeap(t, &oracle)
			op, a, b := script[i]%5, script[i+1], script[i+2]
			at := Time(b % 64)
			sh := shardOf(a)
			switch op {
			case 0: // owned push
				p := &pair{id: nextID}
				p.se = pushNewOn(s, sh, at, func(Time) {})
				p.oe = pushNew(&oracle, at, func(Time) {})
				idOfS[p.se] = p
				owned = append(owned, p)
				nextID++
			case 1: // fire-and-forget push (handle never rescheduled)
				p := &pair{id: nextID}
				p.se = pushNewOn(s, sh, at, func(Time) {})
				p.oe = pushNew(&oracle, at, func(Time) {})
				idOfS[p.se] = p
				nextID++
			case 2:
				popBoth()
			case 3: // reschedule, possibly across shards
				if len(owned) == 0 {
					continue
				}
				p := owned[int(a)%len(owned)]
				if !p.se.Queued() {
					continue // re-inserting fired handles is FuzzEventQueue's job
				}
				newShard := shardOf(b >> 4)
				s.Schedule(p.se, newShard, at)
				oracle.Schedule(p.oe, at)
			case 4: // remove
				if len(owned) == 0 {
					continue
				}
				p := owned[int(a)%len(owned)]
				gotS, gotO := s.Remove(p.se), oracle.Remove(p.oe)
				if gotS != gotO {
					t.Fatalf("Remove(event %d): sharded=%v oracle=%v", p.id, gotS, gotO)
				}
				if gotS {
					delete(idOfS, p.se)
				}
			}
		}

		checkSharded(t, s)
		checkHeap(t, &oracle)

		// Window phase: drain what remains through the parallel-window
		// primitives. The horizon is the earliest control event (or the
		// end of time), exactly as the machine computes it.
		horizon := Time(1 << 62)
		if g := s.PeekGlobal(); g != nil {
			horizon = g.At
		}
		s.BeginWindow()
		for sh := 0; sh < s.Shards(); sh++ {
			last := Time(-1 << 62)
			repushed := false
			for {
				e := s.ShardPopBefore(sh, horizon)
				if e == nil {
					break
				}
				if e.At >= horizon {
					t.Fatalf("shard %d popped event at %d beyond horizon %d", sh, e.At, horizon)
				}
				if e.At < last {
					t.Fatalf("shard %d popped out of order: %d after %d", sh, e.At, last)
				}
				last = e.At
				if !repushed {
					// In-window scheduling onto the own shard must stay
					// legal (once, so the drain terminates: the re-pushed
					// event may itself be popped and is not re-pushed again).
					repushed = true
					pushNewOn(s, sh, e.At+1, func(Time) {})
				}
				checkSharded(t, s)
			}
			if h := s.ShardPeek(sh); h != nil && h.At < horizon {
				t.Fatalf("shard %d still holds pre-horizon event at %d after drain", sh, h.At)
			}
		}
		s.EndWindow()
		// The sequence fold must keep post-window same-time pushes in
		// push order across shards. Identity, not time, marks the probe
		// events: leftover script events may share their timestamp.
		var post []*Event
		isPost := map[*Event]bool{}
		for k := 0; k < 2*nsh; k++ {
			e := pushNewOn(s, k%nsh, horizon+10, func(Time) {})
			post = append(post, e)
			isPost[e] = true
		}
		for k := 0; ; k++ {
			checkSharded(t, s)
			e := s.Pop()
			if e == nil {
				break
			}
			if isPost[e] {
				if e != post[0] {
					t.Fatalf("post-window pop %d out of push order", k)
				}
				post = post[1:]
			}
		}
		if len(post) != 0 {
			t.Fatalf("%d post-window events never popped", len(post))
		}
	})
}
