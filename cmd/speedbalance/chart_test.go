package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/task"
	"repro/internal/topo"
)

// tracedSMP builds an n-core machine whose stints land in the returned
// log.
func tracedSMP(n int, seed uint64) (*sim.Machine, *stintLog) {
	log := &stintLog{}
	return sim.New(topo.SMP(n), sim.Config{Seed: seed, NewScheduler: cfs.Factory(), Tracer: log}), log
}

func chart(m *sim.Machine, log *stintLog) string {
	var b strings.Builder
	writeChart(&b, m, *log)
	return b.String()
}

// A core busy for the whole run is drawn busy in every column and reads
// 100%; an idle core is drawn idle and reads 0%. The busy task is still
// on-CPU when the run stops, so its only stint is the open one. Samples
// fall at 50..950 ms: none is taken at the instant the run ends.
func TestChartSamplesAndUtilisation(t *testing.T) {
	m, log := tracedSMP(2, 1)
	hog := m.NewTask("hog", &task.ComputeForever{Chunk: 1e9})
	hog.Group = "hog"
	m.StartOn(hog, 0)
	m.RunFor(time.Second)
	want := "core  0 " + strings.Repeat("a", 19) + "\n" +
		"core  1 " + strings.Repeat(".", 19) + "\n" +
		"legend: .=idle  a=hog\n" +
		"utilisation:\n  core0  100%  core1    0%  \n"
	if got := chart(m, log); got != want {
		t.Errorf("chart:\n%s\nwant:\n%s", got, want)
	}
}

func TestChartRendersGroupsAndLegend(t *testing.T) {
	m, log := tracedSMP(2, 2)
	app := spmd.Build(m, spmd.Spec{
		Name: "app", Threads: 2, Iterations: 1, WorkPerIteration: 500e6,
		Model: spmd.UPC(),
	})
	app.StartPinned()
	m.RunFor(600 * time.Millisecond)
	// Eleven samples at 50..550 ms: the threads finish at 500 ms, so
	// the last two see idle cores; each core was busy 500 of 600 ms.
	want := "core  0 aaaaaaaaa..\n" +
		"core  1 aaaaaaaaa..\n" +
		"legend: .=idle  a=app\n" +
		"utilisation:\n  core0   83%  core1   83%  \n"
	if got := chart(m, log); got != want {
		t.Errorf("chart:\n%s\nwant:\n%s", got, want)
	}
}

func TestChartEmpty(t *testing.T) {
	m, log := tracedSMP(1, 3)
	want := "(no samples)\nutilisation:\n  core0    0%  \n"
	if got := chart(m, log); got != want {
		t.Errorf("empty chart %q, want %q", got, want)
	}
}
