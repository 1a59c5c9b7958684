// Package clean holds the sanctioned unit-crossing idioms that must
// never fire: now + int64(d), duration-since-start Run on a fresh
// machine, untracked values mixed with durations, and wall time kept to
// progress reporting.
package clean

import "time"

type Machine struct {
	q Queue
}

func (m *Machine) Now() int64                         { return 0 }
func (m *Machine) Run(until int64) int64              { return until }
func (m *Machine) NewTimer(fn func(now int64)) *Timer { return &Timer{} }

type Event struct{ At int64 }

func NewEvent(fn func(now int64)) *Event { return &Event{} }

type Queue struct{}

func (q *Queue) Schedule(e *Event, at int64) {}

type Timer struct{}

func (t *Timer) Schedule(at int64) {}

// scheduleNext is the conversion-site idiom: base + int64(duration).
func scheduleNext(q *Queue, e *Event, m *Machine, interval time.Duration) {
	q.Schedule(e, m.Now()+int64(interval))
}

// runForDuration: "run until int64(d)" on a fresh machine is
// duration-since-start, the repo's pervasive test idiom — Machine.Run
// accepts it by design.
func runForDuration(m *Machine) int64 {
	return m.Run(int64(10 * time.Second))
}

// directCallback: the callback's now parameter is simulated time, so
// now + int64(interval) is SimTime and the re-arm is clean.
func directCallback(m *Machine, interval time.Duration) {
	var t *Timer
	t = m.NewTimer(func(now int64) {
		t.Schedule(now + int64(interval))
	})
	t.Schedule(m.Now() + int64(interval))
}

// periodicTimer re-arms through a named closure: the now parameter is
// untracked there, and untracked + duration stays untracked — the
// analyzer only reports provable unit errors.
func periodicTimer(q *Queue, interval time.Duration) {
	var e *Event
	var tick func(now int64)
	tick = func(now int64) {
		q.Schedule(e, now+int64(interval))
	}
	e = NewEvent(tick)
	q.Schedule(e, 0)
}

// spanCompare: subtracting two sim timestamps yields a span, and spans
// compare against durations freely.
func spanCompare(m *Machine, budget time.Duration) bool {
	start := m.Now()
	end := m.Run(start + int64(budget))
	return end-start > int64(budget)
}

// progressLog keeps wall time out of the simulation: measuring how long
// a run took is exactly what the wall clock is for.
func progressLog(m *Machine) (int64, time.Duration) {
	sw := time.Now()
	end := m.Run(int64(time.Second))
	return end, time.Since(sw)
}
