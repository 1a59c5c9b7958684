package exp

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// cellTraceCap is the capacity of each cell's trace ring: enough for the
// full event stream of a paper-scale run while bounding memory on
// pathological ones.
const cellTraceCap = 1 << 16

// TraceSink collects the traces of an experiment's cells into one
// Chrome trace-event stream. Each cell records into its own ring
// (created at submission time), and the Runner flushes rings into the
// writer strictly in submission order — which is what makes the output
// bytes independent of the -parallel level. All sink methods are called
// from a single goroutine (submission and delivery both happen on the
// goroutine that calls Runner.Wait).
type TraceSink struct {
	cw *trace.ChromeWriter
	// Cells and Dropped summarise the flushed stream for reporting.
	Cells   int
	Dropped uint64
}

// NewTraceSink starts a trace stream on w.
func NewTraceSink(w io.Writer) *TraceSink {
	return &TraceSink{cw: trace.NewChromeWriter(w)}
}

// newRing allocates the per-cell event buffer.
func (s *TraceSink) newRing() *trace.Ring { return trace.NewRing(cellTraceCap) }

// flush exports one cell's events under its label. Rings must be
// flushed in submission order.
func (s *TraceSink) flush(label string, r *trace.Ring) {
	s.Cells++
	s.Dropped += r.Dropped()
	s.cw.BeginCell(label, r.Dropped())
	for _, e := range r.Events() {
		s.cw.WriteEvent(e)
	}
}

// Close terminates the JSON document. The stream is valid (an empty
// traceEvents array) even when no cell was ever flushed.
func (s *TraceSink) Close() error { return s.cw.Close() }

// MetricsTables renders an aggregated metrics snapshot as exp tables
// (one per metric class that has entries), ready for text or CSV
// output alongside the experiment's own tables.
func MetricsTables(s metrics.Snapshot) []*Table {
	var out []*Table
	if len(s.Counters) > 0 {
		t := &Table{Title: "metrics: counters", Columns: []string{"name", "total"}}
		for _, c := range s.Counters {
			t.AddRow(c.Name, fmt.Sprintf("%d", c.Value))
		}
		out = append(out, t)
	}
	if len(s.Gauges) > 0 {
		t := &Table{Title: "metrics: gauges (mean over runs)", Columns: []string{"name", "mean"}}
		for _, g := range s.Gauges {
			t.AddRow(g.Name, fmt.Sprintf("%.4f", g.Value))
		}
		out = append(out, t)
	}
	if len(s.Hists) > 0 {
		t := &Table{
			Title:   "metrics: histograms",
			Columns: []string{"name", "count", "mean", "min", "max"},
		}
		for _, h := range s.Hists {
			t.AddRow(h.Name, fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%.4g", h.Mean()), fmt.Sprintf("%.4g", h.Min), fmt.Sprintf("%.4g", h.Max))
		}
		out = append(out, t)
	}
	return out
}
