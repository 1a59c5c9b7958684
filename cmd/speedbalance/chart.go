package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// stintLog is a trace.Tracer keeping a run's on-CPU stints.
type stintLog []trace.Event

// Emit implements trace.Tracer.
func (l *stintLog) Emit(e trace.Event) {
	if e.Kind == trace.KindRunStint {
		*l = append(*l, e)
	}
}

const (
	// chartPeriod is the time one chart column samples.
	chartPeriod = int64(50 * time.Millisecond)
	// chartCols caps the chart width; longer runs are downsampled.
	chartCols = 100
	// chartLetters label task groups in sorted order; later ones are '#'.
	chartLetters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)

// writeChart draws which task ran on each core of the finished run on m,
// read from its traced stints: one row per core, one column per
// chartPeriod, one letter per task group (a task without a group is
// labelled by its name, idle is '.'), then each core's utilisation, its
// exact busy time over the run.
func writeChart(w io.Writer, m *sim.Machine, stints []trace.Event) {
	end := m.Now()
	// A task still on-CPU when the run stopped has emitted no stint.
	for _, c := range m.Cores {
		if t := c.Current(); t != nil && c.StintStart() < end {
			stints = append(stints, trace.Event{Time: end, Dur: end - c.StintStart(), Core: c.ID(), Task: t.ID})
		}
	}
	// grid[core][r-1] labels the task running at sample r, taken at
	// r·chartPeriod before the end of the run.
	rounds := (end - 1) / chartPeriod
	grid := make([][]string, len(m.Cores))
	for c := range grid {
		grid[c] = make([]string, rounds)
	}
	busy := make([]int64, len(m.Cores))
	letters := map[string]byte{}
	for _, e := range stints {
		busy[e.Core] += e.Dur
		label := m.Tasks()[e.Task].Group
		if label == "" {
			label = m.Tasks()[e.Task].Name
		}
		// Stints are half-open, [start, end): one ending at a sample
		// instant gives way to the one starting there.
		start := e.Time - e.Dur
		for r := max((start+chartPeriod-1)/chartPeriod, 1); r <= rounds && r*chartPeriod < e.Time; r++ {
			grid[e.Core][r-1] = label
			letters[label] = '#'
		}
	}

	if rounds == 0 {
		fmt.Fprintln(w, "(no samples)")
	} else {
		labels := make([]string, 0, len(letters))
		for l := range letters {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		legend := "legend: .=idle"
		for i, l := range labels {
			if i < len(chartLetters) {
				letters[l] = chartLetters[i]
			}
			legend += fmt.Sprintf("  %c=%s", letters[l], l)
		}
		letters[""] = '.'
		step := (rounds + chartCols - 1) / chartCols
		for c, row := range grid {
			line := fmt.Sprintf("core %2d ", c)
			for r := int64(0); r < rounds; r += step {
				line += string(letters[row[r]])
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w, legend)
	}

	fmt.Fprint(w, "utilisation:")
	for c, b := range busy {
		if c%8 == 0 {
			fmt.Fprint(w, "\n  ")
		}
		fmt.Fprintf(w, "core%-2d %3.0f%%  ", c, float64(b)/float64(max(end, 1))*100)
	}
	fmt.Fprintln(w)
}
