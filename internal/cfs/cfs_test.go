package cfs

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/task"
)

func newTask(id int, nice int) *task.Task {
	t := &task.Task{ID: id, Nice: nice}
	t.Sched.Weight = task.NiceWeight(nice)
	return t
}

func TestPickOrderByVruntime(t *testing.T) {
	q := New()
	a, b, c := newTask(1, 0), newTask(2, 0), newTask(3, 0)
	a.Sched.Vruntime, b.Sched.Vruntime, c.Sched.Vruntime = 30, 10, 20
	q.Enqueue(a, false)
	q.Enqueue(b, false)
	q.Enqueue(c, false)
	// All enqueued non-wakeup at minVruntime 0: vruntimes are preserved
	// relative to the queue clock.
	got := q.PickNext()
	if got != b {
		t.Fatalf("picked %d, want task 2 (lowest vruntime)", got.ID)
	}
}

func TestDoubleEnqueuePanics(t *testing.T) {
	q := New()
	a := newTask(1, 0)
	q.Enqueue(a, false)
	defer func() {
		if recover() == nil {
			t.Error("no panic on double enqueue")
		}
	}()
	q.Enqueue(a, false)
}

func TestSliceProportionalToWeight(t *testing.T) {
	q := New()
	hi, lo := newTask(1, -5), newTask(2, 0)
	q.Enqueue(hi, false)
	q.Enqueue(lo, false)
	sHi, sLo := q.Slice(hi), q.Slice(lo)
	if sHi <= sLo {
		t.Errorf("higher-priority slice %v not larger than %v", sHi, sLo)
	}
	// Floor at the minimum granularity.
	for i := 3; i < 20; i++ {
		q.Enqueue(newTask(i, 0), false)
	}
	if s := q.Slice(lo); s < minGranularity {
		t.Errorf("slice %v below min granularity", s)
	}
}

// Wakeup preemption requires a vruntime lead beyond the granularity.
func TestWakeupPreemption(t *testing.T) {
	q := New()
	cur := newTask(1, 0)
	q.Enqueue(cur, false)
	if q.PickNext() != cur {
		t.Fatal("setup failed")
	}
	q.AccountExec(cur, 50*time.Millisecond)

	// A long sleeper gets the clamped credit and preempts.
	sleeper := newTask(2, 0)
	sleeper.Sched.Vruntime = 0
	if preempt := q.Enqueue(sleeper, true); !preempt {
		t.Error("far-behind sleeper did not preempt")
	}
	q.Dequeue(sleeper)

	// A task that slept just now, barely behind the runner, does not
	// preempt: its restored position is within the wakeup granularity.
	near := newTask(3, 0)
	near.Sched.QueueClock = q.MinVruntime()
	near.Sched.Vruntime = -int64(time.Millisecond) // 1 ms behind at sleep time
	if preempt := q.Enqueue(near, true); preempt {
		t.Error("near task preempted within wakeup granularity")
	}
}

// Sleeper credit is clamped: a task asleep for an hour resumes near the
// queue clock, not an hour behind.
func TestSleeperCreditClamped(t *testing.T) {
	q := New()
	runner := newTask(1, 0)
	q.Enqueue(runner, false)
	q.PickNext()
	q.AccountExec(runner, time.Hour/1000) // advance the clock: 3.6s vruntime
	minV := q.MinVruntime()

	sleeper := newTask(2, 0)
	sleeper.Sched.Vruntime = 0
	q.Enqueue(sleeper, true)
	if got, floor := sleeper.Sched.Vruntime, minV-int64(sleeperCredit); got < floor {
		t.Errorf("sleeper vruntime %d below floor %d", got, floor)
	}
}

// Yield places the caller strictly behind every queued task.
func TestYieldGoesBehind(t *testing.T) {
	q := New()
	a, b, c := newTask(1, 0), newTask(2, 0), newTask(3, 0)
	q.Enqueue(a, false)
	q.Enqueue(b, false)
	q.Enqueue(c, false)
	got := q.PickNext() // a (ID order at equal vruntime)
	q.Yield(got)
	q.PutPrev(got)
	if next := q.PickNext(); next == got {
		t.Error("yielded task picked again immediately")
	}
}

// Weighted fairness: vruntime advances inversely to weight.
func TestAccountExecWeighted(t *testing.T) {
	q := New()
	hi, lo := newTask(1, -5), newTask(2, 0)
	q.Enqueue(hi, false)
	q.Enqueue(lo, false)
	q.Dequeue(hi)
	q.Dequeue(lo)
	hi.Sched.Vruntime, lo.Sched.Vruntime = 0, 0
	q.Enqueue(hi, false)
	q.PickNext()
	q.AccountExec(hi, 10*time.Millisecond)
	dHi := hi.Sched.Vruntime
	q.Dequeue(hi)

	q.Enqueue(lo, false)
	lo.Sched.Vruntime = q.MinVruntime() // normalise for comparison
	base := lo.Sched.Vruntime
	q.PickNext()
	q.AccountExec(lo, 10*time.Millisecond)
	dLo := lo.Sched.Vruntime - base

	ratio := float64(dLo) / float64(dHi)
	want := float64(task.NiceWeight(-5)) / float64(task.NiceWeight(0))
	if ratio < want*0.99 || ratio > want*1.01 {
		t.Errorf("vruntime ratio %.3f, want ≈ %.3f", ratio, want)
	}
}

// Dequeue of the running task detaches it; weights stay consistent.
func TestDequeueRunning(t *testing.T) {
	q := New()
	a, b := newTask(1, 0), newTask(2, 0)
	q.Enqueue(a, false)
	q.Enqueue(b, false)
	cur := q.PickNext()
	q.Dequeue(cur)
	if q.NrRunnable() != 1 {
		t.Fatalf("NrRunnable = %d, want 1", q.NrRunnable())
	}
	if q.WeightedLoad() != 1024 {
		t.Errorf("WeightedLoad = %d, want 1024", q.WeightedLoad())
	}
	if next := q.PickNext(); next == cur {
		t.Error("dequeued task picked")
	}
}

// Vruntime normalisation: a task dequeued from a busy queue and
// enqueued on a fresh one does not carry an absolute advantage.
func TestVruntimeNormalisation(t *testing.T) {
	q1 := New()
	a := newTask(1, 0)
	filler := newTask(2, 0)
	q1.Enqueue(filler, false)
	q1.Enqueue(a, false)
	q1.PickNext()
	q1.AccountExec(filler, time.Second) // q1 clock far ahead
	q1.Dequeue(a)

	q2 := New()
	b := newTask(3, 0)
	q2.Enqueue(b, false)
	q2.Enqueue(a, false)
	// a must not be entitled to a full second of catch-up on q2.
	if gap := b.Sched.Vruntime - a.Sched.Vruntime; gap > int64(time.Second)/2 {
		t.Errorf("migrated task carried %v of vruntime advantage", time.Duration(gap))
	}
}

// MinVruntime never decreases.
func TestMinVruntimeMonotonic(t *testing.T) {
	q := New()
	last := int64(0)
	a := newTask(1, 0)
	q.Enqueue(a, false)
	for i := 0; i < 100; i++ {
		tk := q.PickNext()
		q.AccountExec(tk, time.Millisecond)
		if mv := q.MinVruntime(); mv < last {
			t.Fatalf("minVruntime went backwards: %d < %d", mv, last)
		} else {
			last = mv
		}
		q.PutPrev(tk)
	}
}

// Property: random operation sequences keep queue counters consistent.
func TestPropertyQueueConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		q := New()
		var queued []*task.Task
		var cur *task.Task
		nextID := 0
		for _, op := range ops {
			switch op % 5 {
			case 0: // enqueue new
				tk := newTask(nextID, int(op%7)-3)
				nextID++
				q.Enqueue(tk, op%2 == 0)
				queued = append(queued, tk)
			case 1: // pick
				if cur == nil {
					cur = q.PickNext()
					if cur != nil {
						for i, x := range queued {
							if x == cur {
								queued = append(queued[:i], queued[i+1:]...)
								break
							}
						}
					}
				}
			case 2: // account + putprev
				if cur != nil {
					q.AccountExec(cur, time.Duration(op)*time.Millisecond)
					q.PutPrev(cur)
					queued = append(queued, cur)
					cur = nil
				}
			case 3: // dequeue one
				if len(queued) > 0 {
					tk := queued[len(queued)-1]
					queued = queued[:len(queued)-1]
					q.Dequeue(tk)
				}
			case 4: // yield current
				if cur != nil {
					q.Yield(cur)
					q.PutPrev(cur)
					queued = append(queued, cur)
					cur = nil
				}
			}
			wantN := len(queued)
			if cur != nil {
				wantN++
			}
			if q.NrRunnable() != wantN {
				return false
			}
			var wantW int64
			for _, x := range queued {
				wantW += x.Sched.Weight
			}
			if cur != nil {
				wantW += cur.Sched.Weight
			}
			if q.WeightedLoad() != wantW {
				return false
			}
			if len(q.Queued()) != len(queued) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
