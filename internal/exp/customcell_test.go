package exp

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/perturb"
)

// customCellIDs are the experiments whose cells build their own
// machines through Runner.SubmitFunc.
var customCellIDs = []string{"open-bakeoff", "predict-bakeoff", "ext-measure"}

// stintCounter counts the run-stint slices of a Chrome trace stream
// without keeping the stream.
type stintCounter struct {
	stints int
	tail   []byte
}

var stintTag = []byte(`"ph":"X"`)

func (c *stintCounter) Write(p []byte) (int, error) {
	buf := append(c.tail, p...)
	c.stints += bytes.Count(buf, stintTag)
	// Keep what could begin a tag split across writes.
	c.tail = append([]byte(nil), buf[max(0, len(buf)-len(stintTag)+1):]...)
	return len(p), nil
}

// Custom cells receive the RunOpts the Runner fills in, so -trace and
// -metrics reach them as they reach Submit cells: every one of them
// records a trace cell, the cells hold scheduling events, and the
// engine counters are collected.
func TestCustomCellsTracedAndCollected(t *testing.T) {
	if testing.Short() {
		t.Skip("custom-cell runs skipped in short mode")
	}
	for _, id := range customCellIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			var sc stintCounter
			ctx := &Context{Reps: 1, Scale: 64, Seed: 20100109, Parallelism: 1}
			ctx.Trace = NewTraceSink(&sc)
			ctx.Metrics = metrics.NewAggregate()
			e.Run(ctx)
			if err := ctx.Trace.Close(); err != nil {
				t.Fatal(err)
			}
			if ctx.Trace.Cells == 0 || sc.stints < ctx.Trace.Cells {
				t.Errorf("trace holds %d cells and %d run stints, want every cell traced", ctx.Trace.Cells, sc.stints)
			}
			var events int64
			for _, c := range ctx.Metrics.Snapshot().Counters {
				if c.Name == "sim.events" {
					events = c.Value
				}
			}
			if events == 0 {
				t.Error("no sim.events counter collected")
			}
		})
	}
}

// -perturb reaches custom cells too: kernel noise changes the tables of
// open-bakeoff and ext-measure. predict-bakeoff sets its disturbance
// family and predictive mode per row itself, so neither -perturb nor
// -predict changes its tables.
func TestCustomCellsHonourPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("custom-cell runs skipped in short mode")
	}
	noise, err := perturb.Parse("noise")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range customCellIDs {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			run := func(p perturb.Config, predict bool) string {
				return renderAll(e.Run(&Context{Reps: 1, Scale: 64, Seed: 20100109,
					Parallelism: 1, Perturb: p, Predict: predict}))
			}
			clean, noisy := run(perturb.Config{}, false), run(noise, false)
			if id == "predict-bakeoff" {
				if noisy != clean {
					t.Error("-perturb noise changed predict-bakeoff's tables")
				}
				if run(perturb.Config{}, true) != clean {
					t.Error("-predict changed predict-bakeoff's tables")
				}
				return
			}
			if noisy == clean {
				t.Errorf("-perturb noise left %s's tables unchanged", id)
			}
		})
	}
}

// EQUI admission pins each arriving thread to the next core in a fixed
// round-robin order. Under hotplug that core may be offline, and
// placing a task there panics; admission skips it instead, and every
// job still completes.
func TestEQUIAdmitsUnderHotplug(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second open-system cells skipped in short mode")
	}
	hotplug, err := perturb.Parse("hotplug")
	if err != nil {
		t.Fatal(err)
	}
	var equi openPolicy
	for _, p := range openPolicies {
		if p.equi {
			equi = p
		}
	}
	if !equi.equi {
		t.Fatal("no EQUI policy in openPolicies")
	}
	reg := metrics.NewRegistry()
	o := runOpenCell(equi, openCellOpts{rho: 0.5, horizon: 4 * time.Second},
		RunOpts{Seed: 20100109, Perturb: hotplug, Metrics: reg})
	if o.admitted < 500 {
		t.Fatalf("only %d jobs admitted", o.admitted)
	}
	if o.unfinished != 0 {
		t.Errorf("%d of %d jobs unfinished after the drain window", o.unfinished, o.admitted)
	}
	if reg.Counter("hotplug.offline").Value() == 0 {
		t.Error("no core went offline; the cell does not exercise hotplug")
	}
}
