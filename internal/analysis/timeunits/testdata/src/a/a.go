// Package a seeds every timeunits violation class against doubles that
// mirror the sim/eventq timer surfaces. The branch fixture is the point
// of the dataflow engine: wall taint arriving on only one path still
// poisons the sink after the join.
package a

import "time"

// Machine, Queue, Timer, and Stopwatch mirror the repo's timer surfaces.
type Machine struct{}

func (m *Machine) Now() int64            { return 0 }
func (m *Machine) Run(until int64) int64 { return until }

type Event struct{ At int64 }

type Queue struct{}

func (q *Queue) Schedule(e *Event, at int64) {}

type Timer struct{}

func (t *Timer) Schedule(at int64) {}

type Stopwatch struct{}

func (s *Stopwatch) Elapsed() time.Duration { return 0 }

// Wall-clock nanoseconds driving the simulation clock.
func wallIntoRun(m *Machine) {
	m.Run(time.Now().UnixNano()) // want timeunits:"wall-clock-derived nanoseconds passed as the simulated time of Machine.Run"
}

// The taint survives locals and method chains.
func wallThroughLocal(t *Timer) {
	deadline := time.Now().Add(time.Second).UnixNano()
	t.Schedule(deadline) // want timeunits:"wall-clock-derived nanoseconds passed as the simulated time of Timer.Schedule"
}

// Stopwatch is the sanctioned progress reporter; its reading is still
// wall time and must not feed the event clock.
func stopwatchIntoSink(m *Machine, sw *Stopwatch) {
	m.Run(int64(sw.Elapsed())) // want timeunits:"wall-clock-derived nanoseconds passed as the simulated time of Machine.Run"
}

// Mixing wall and simulated time in arithmetic is wrong everywhere, not
// just at sinks.
func wallMixedWithSim(m *Machine) int64 {
	return m.Now() + time.Now().UnixNano() // want timeunits:"mixes wall-clock time with simulated time"
}

// A bare duration as an absolute re-scheduling time: t = interval is the
// dead past once the clock has advanced.
func durationAsAbsolute(q *Queue, e *Event, interval time.Duration) {
	q.Schedule(e, int64(interval)) // want timeunits:"bare time.Duration value passed as the absolute time of Queue.Schedule"
}

func tickEveryInterval(t *Timer, period time.Duration) {
	next := period.Nanoseconds()
	t.Schedule(next) // want timeunits:"bare time.Duration value passed as the absolute time of Timer.Schedule"
}

// Wall taint on one branch poisons the joined value: only the CFG sees
// this.
func wallOnOnePath(m *Machine, t *Timer, fallback bool) {
	var at int64
	if fallback {
		at = time.Now().UnixNano()
	} else {
		at = m.Now() + int64(time.Millisecond)
	}
	t.Schedule(at) // want timeunits:"wall-clock-derived nanoseconds passed as the simulated time of Timer.Schedule"
}
