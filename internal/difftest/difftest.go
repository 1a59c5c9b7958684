// Package difftest is the differential equivalence harness for the
// simulator's engine settings: it runs the same workload through a
// reference configuration and through the others, and proves every
// deterministic output channel byte-identical.
//
// An engine slip — a merge-order mistake, a stale clock read, state
// shared between grid workers — would not crash, it would silently skew
// result tables. The defence is differential: the reference run is the
// oracle, and three output channels are compared byte-for-byte:
//
//   - rendered result tables (the exact bytes `lbos run` prints),
//   - the Chrome trace-event JSON stream,
//   - the aggregated metrics snapshot (rendered through the same table
//     path `lbos run -metrics` uses).
//
// Three test families use the harness. An experiment matrix runs every
// registered driver the evaluation depends on at grid parallelism
// {1, 8} against a single-worker reference (diff_test.go). A seeded
// property-based generator draws random topologies, workloads and
// perturbation configs whose runs must repeat byte-identically and pass
// the physical invariant suite, and random socket-contained fabrics
// must match the single queue at every shard count with parallel
// lookahead windows on and off (prop_test.go). Shard-count invariance
// of cross-socket workloads is proven a layer down, by internal/sim's
// TestShardCountInvariance.
package difftest

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Settings selects one run configuration for a differential run.
type Settings struct {
	// Parallelism is the experiment Runner's worker count (0 =
	// GOMAXPROCS).
	Parallelism int
	// Bare runs without trace or metrics sinks, exactly like a plain
	// `lbos run`: attached sinks change which engine paths a run takes
	// (they keep parallel lookahead windows shut), so the plain
	// configuration is checked on its own. Bare captures compare tables
	// only.
	Bare bool
}

// String names the configuration in failure messages.
func (s Settings) String() string {
	return fmt.Sprintf("parallel=%d bare=%v", s.Parallelism, s.Bare)
}

// Capture holds every deterministic output channel of one experiment
// run. Two captures from equivalent engines must be equal field by
// field, byte for byte.
type Capture struct {
	// Tables is the concatenation of the experiment's rendered tables.
	Tables string
	// Trace is the Chrome trace-event JSON document.
	Trace []byte
	// Metrics is the aggregated metrics snapshot rendered as tables —
	// rendering makes the comparison a byte comparison and the failure
	// output human-readable.
	Metrics string
}

// RunExperiment executes the registered experiment driver id with every
// output channel attached and captures the results. reps/scale/seed pin
// the workload; s picks the engine.
func RunExperiment(id string, reps, scale int, seed uint64, s Settings) (Capture, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return Capture{}, err
	}
	var traceBuf bytes.Buffer
	ctx := &exp.Context{Reps: reps, Scale: scale, Seed: seed, Parallelism: s.Parallelism}
	if !s.Bare {
		ctx.Trace = exp.NewTraceSink(&traceBuf)
		ctx.Metrics = metrics.NewAggregate()
	}
	var tables strings.Builder
	for _, t := range e.Run(ctx) {
		t.Render(&tables)
	}
	if s.Bare {
		return Capture{Tables: tables.String()}, nil
	}
	if err := ctx.Trace.Close(); err != nil {
		return Capture{}, fmt.Errorf("difftest: closing trace: %w", err)
	}
	var ms strings.Builder
	for _, t := range exp.MetricsTables(ctx.Metrics.Snapshot()) {
		t.Render(&ms)
	}
	return Capture{Tables: tables.String(), Trace: traceBuf.Bytes(), Metrics: ms.String()}, nil
}

// Diff compares two captures and describes the first divergence, or
// returns "" when they are byte-identical.
func Diff(want, got Capture) string {
	if want.Tables != got.Tables {
		return "tables differ:\n" + firstDivergence(want.Tables, got.Tables)
	}
	if !bytes.Equal(want.Trace, got.Trace) {
		return "trace bytes differ:\n" + firstDivergence(string(want.Trace), string(got.Trace))
	}
	if want.Metrics != got.Metrics {
		return "metrics differ:\n" + firstDivergence(want.Metrics, got.Metrics)
	}
	return ""
}

// firstDivergence renders the first differing line of two outputs with
// a little context — enough to see which cell or event diverged without
// dumping both documents.
func firstDivergence(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  want: %q\n  got:  %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d lines, got %d", len(wl), len(gl))
}

// Fingerprint summarises the complete observable end state of a machine
// — clock, counters, the accounting of every task the run started,
// every core's time split — as a string two equivalent engines must
// reproduce byte-identically. The machine forgets exited tasks, so the
// run's tasks come from the TaskLog attached to m before they started.
// Work prints in its shortest exact form, so a drift of one ulp shows.
// It is the machine-level analogue of Capture for workloads driven
// below the experiment harness (the property-based cross-checks).
func Fingerprint(m *sim.Machine, log *sim.TaskLog) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d events=%d cs=%d wake=%d mig=%d live=%d\n",
		m.Now(), m.Stats.Events, m.Stats.ContextSwitches, m.Stats.Wakeups,
		m.Stats.TotalMigrations(), m.LiveTasks())
	for _, t := range log.Tasks {
		fmt.Fprintf(&b, "task %d %s exec=%d work=%v mig=%d fin=%d core=%d st=%v\n",
			t.ID, t.Name, t.ExecTime, t.WorkDone, t.Migrations, t.FinishedAt, t.CoreID, t.State)
	}
	for _, c := range m.Cores {
		fmt.Fprintf(&b, "core %d busy=%d idle=%d stolen=%d\n",
			c.ID(), c.BusyTime, c.IdleTime(), c.StolenTime)
	}
	return b.String()
}
