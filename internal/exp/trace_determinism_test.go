package exp

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/metrics"
)

// traceRun executes one experiment with tracing and metrics attached
// and returns the trace bytes, the metrics snapshot, and the rendered
// tables.
func traceRun(t *testing.T, id string, par int) (traceJSON []byte, snap metrics.Snapshot, tables string) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ctx := &Context{Reps: 2, Scale: 32, Seed: 20100109, Parallelism: par}
	ctx.Trace = NewTraceSink(&buf)
	ctx.Metrics = metrics.NewAggregate()
	out := renderAll(e.Run(ctx))
	if err := ctx.Trace.Close(); err != nil {
		t.Fatalf("trace close: %v", err)
	}
	return buf.Bytes(), ctx.Metrics.Snapshot(), out
}

// TestTraceParallelDeterminism extends the harness reproducibility
// guarantee to the observability layer: the Chrome trace JSON and the
// aggregated metrics snapshot are byte-identical across Parallelism
// ∈ {1, 2, 8}. fig1 is the analytic experiment (no simulated cells —
// its trace must be empty but valid); abl-jit runs real Submit/Repeat
// cells through every traced subsystem.
func TestTraceParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism regression test skipped in short mode")
	}
	for _, id := range []string{"fig1", "abl-jit"} {
		id := id
		t.Run(id, func(t *testing.T) {
			baseTrace, baseSnap, baseTables := traceRun(t, id, 1)
			if !json.Valid(baseTrace) {
				t.Fatalf("trace is not valid JSON:\n%.200s", baseTrace)
			}
			var doc struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(baseTrace, &doc); err != nil {
				t.Fatalf("trace does not parse as a trace-event document: %v", err)
			}
			if id == "abl-jit" && len(doc.TraceEvents) == 0 {
				t.Error("abl-jit runs simulated cells but traced no events")
			}
			for _, par := range []int{2, 8} {
				gotTrace, gotSnap, gotTables := traceRun(t, id, par)
				if !bytes.Equal(gotTrace, baseTrace) {
					t.Errorf("trace bytes differ between Parallelism 1 and %d (%d vs %d bytes)",
						par, len(baseTrace), len(gotTrace))
				}
				if len(gotSnap.Counters) != len(baseSnap.Counters) {
					t.Errorf("Parallelism %d: %d counters, want %d", par, len(gotSnap.Counters), len(baseSnap.Counters))
				} else {
					for i, c := range gotSnap.Counters {
						if c != baseSnap.Counters[i] {
							t.Errorf("Parallelism %d: counter %d = %+v, want %+v", par, i, c, baseSnap.Counters[i])
						}
					}
				}
				if gotTables != baseTables {
					t.Errorf("Parallelism %d: traced run rendered different tables", par)
				}
			}
			// Tracing must not perturb the measured output either: the
			// rendered tables of a traced run match an untraced one.
			e, _ := ByID(id)
			plain := renderAll(e.Run(&Context{Reps: 2, Scale: 32, Seed: 20100109, Parallelism: 1}))
			if plain != baseTables {
				t.Error("attaching the tracer changed the rendered tables")
			}
		})
	}
}
