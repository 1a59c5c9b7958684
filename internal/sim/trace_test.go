package sim_test

import (
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
)

// tracedRun executes a small contended workload and returns the machine
// plus whatever the tracer captured (nil tracer/metrics allowed).
func tracedRun(t *testing.T, tr trace.Tracer, reg *metrics.Registry) *sim.Machine {
	t.Helper()
	m := sim.New(topo.SMP(2), sim.Config{
		Seed:         1,
		NewScheduler: cfs.Factory(),
		Tracer:       tr,
		Metrics:      reg,
	})
	// Three compute tasks on two cores force queueing, timeslice
	// rotations and run stints; a sleep exercises the wakeup path.
	for i := 0; i < 3; i++ {
		tk := m.NewTask("w", &task.Seq{Actions: []task.Action{
			task.Compute(float64(30 * time.Millisecond)),
			task.Sleep(time.Millisecond),
			task.Compute(float64(30 * time.Millisecond)),
		}})
		m.Start(tk)
	}
	m.Run(int64(time.Second))
	return m
}

func TestMachineEmitsTraceEvents(t *testing.T) {
	ring := trace.NewRing(1 << 12)
	reg := metrics.NewRegistry()
	tracedRun(t, ring, reg)
	evs := ring.Events()
	if len(evs) == 0 {
		t.Fatal("no events traced")
	}
	kinds := map[trace.Kind]int{}
	var lastSeq uint64
	for i, e := range evs {
		kinds[e.Kind]++
		if i > 0 && e.Seq <= lastSeq {
			t.Fatalf("seq not strictly increasing at %d: %d after %d", i, e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.Kind == trace.KindRunStint {
			if e.Dur <= 0 {
				t.Errorf("run stint with dur %d", e.Dur)
			}
			if e.Time-e.Dur < 0 {
				t.Errorf("run stint starts before time 0: end %d dur %d", e.Time, e.Dur)
			}
		}
	}
	for _, k := range []trace.Kind{trace.KindForkPlace, trace.KindRunStint, trace.KindTimeslice} {
		if kinds[k] == 0 {
			t.Errorf("no %v events traced (kinds: %v)", k, kinds)
		}
	}
	if kinds[trace.KindForkPlace] != 3 {
		t.Errorf("fork-place events = %d, want 3", kinds[trace.KindForkPlace])
	}
}

// TestTracingDoesNotPerturbRun pins the observer-effect contract: a
// traced run and an untraced run of the same seed produce identical
// scheduling outcomes.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	ring := trace.NewRing(1 << 12)
	traced := tracedRun(t, ring, metrics.NewRegistry())
	plain := tracedRun(t, nil, nil)
	if traced.Stats.ContextSwitches != plain.Stats.ContextSwitches ||
		traced.Stats.Wakeups != plain.Stats.Wakeups ||
		traced.Stats.Events != plain.Stats.Events {
		t.Errorf("traced run diverged: %+v vs %+v", traced.Stats, plain.Stats)
	}
	for i := range traced.Tasks() {
		a, b := traced.Tasks()[i], plain.Tasks()[i]
		if a.ExecTime != b.ExecTime || a.FinishedAt != b.FinishedAt {
			t.Errorf("task %d diverged: exec %v/%v finished %d/%d",
				i, a.ExecTime, b.ExecTime, a.FinishedAt, b.FinishedAt)
		}
	}
}

// TestTraceRepeatable pins event-level determinism: two identical traced
// runs capture identical event sequences.
func TestTraceRepeatable(t *testing.T) {
	r1 := trace.NewRing(1 << 12)
	r2 := trace.NewRing(1 << 12)
	tracedRun(t, r1, nil)
	tracedRun(t, r2, nil)
	a, b := r1.Events(), r2.Events()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

// benchRun is tracedRun without the testing.T, for benchmarks.
func benchRun(tr trace.Tracer) {
	m := sim.New(topo.SMP(2), sim.Config{
		Seed:         1,
		NewScheduler: cfs.Factory(),
		Tracer:       tr,
	})
	for i := 0; i < 3; i++ {
		tk := m.NewTask("w", &task.Seq{Actions: []task.Action{
			task.Compute(float64(30 * time.Millisecond)),
			task.Sleep(time.Millisecond),
			task.Compute(float64(30 * time.Millisecond)),
		}})
		m.Start(tk)
	}
	m.Run(int64(time.Second))
}

// BenchmarkTracedVsUntraced guards the nil-tracer fast path: the
// untraced case must not pay for event construction (every emission
// site checks Tracing() before building the Event). Compare the two
// sub-benchmarks' ns/op and allocs to quantify tracing overhead.
func BenchmarkTracedVsUntraced(b *testing.B) {
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchRun(nil)
		}
	})
	b.Run("traced", func(b *testing.B) {
		ring := trace.NewRing(1 << 12)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ring.Reset()
			benchRun(ring)
		}
	})
}

func TestMigrationMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	m := sim.New(topo.SMP(2), sim.Config{Seed: 1, NewScheduler: cfs.Factory(), Metrics: reg})
	tk := m.NewTask("mover", &task.Seq{Actions: []task.Action{task.Compute(float64(time.Millisecond))}})
	m.StartOn(tk, 0)
	m.Run(0)
	m.MigrateNow(tk, 1, "testlabel")
	s := reg.Snapshot()
	if len(s.Counters) != 1 || s.Counters[0].Name != "migrations.testlabel" || s.Counters[0].Value != 1 {
		t.Errorf("counters = %+v, want migrations.testlabel=1", s.Counters)
	}
}
