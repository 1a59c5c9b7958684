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
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
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
	// Trace names the file holding the Chrome trace-event JSON document
	// ("" for bare captures). An open-system run's trace reaches tens of
	// megabytes, so it is spooled to disk rather than held in memory.
	Trace string
	// Metrics is the aggregated metrics snapshot rendered as tables —
	// rendering makes the comparison a byte comparison and the failure
	// output human-readable.
	Metrics string
}

// RunExperiment executes the registered experiment driver id with every
// output channel attached and captures the results. reps/scale/seed pin
// the workload; s picks the engine; the trace is spooled to a new file
// in dir.
func RunExperiment(id string, reps, scale int, seed uint64, s Settings, dir string) (Capture, error) {
	e, err := exp.ByID(id)
	if err != nil {
		return Capture{}, err
	}
	ctx := &exp.Context{Reps: reps, Scale: scale, Seed: seed, Parallelism: s.Parallelism}
	var trace *os.File
	var spool *bufio.Writer
	if !s.Bare {
		if trace, err = os.CreateTemp(dir, id+"-*.json"); err != nil {
			return Capture{}, fmt.Errorf("difftest: %w", err)
		}
		defer trace.Close()
		// Traces run to hundreds of megabytes: write them in large chunks.
		spool = bufio.NewWriterSize(trace, 1<<20)
		ctx.Trace = exp.NewTraceSink(spool)
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
	if err := spool.Flush(); err != nil {
		return Capture{}, fmt.Errorf("difftest: writing trace file: %w", err)
	}
	if err := trace.Close(); err != nil {
		return Capture{}, fmt.Errorf("difftest: closing trace file: %w", err)
	}
	var ms strings.Builder
	for _, t := range exp.MetricsTables(ctx.Metrics.Snapshot()) {
		t.Render(&ms)
	}
	return Capture{Tables: tables.String(), Trace: trace.Name(), Metrics: ms.String()}, nil
}

// Diff compares two captures and describes the first divergence, or
// returns "" when they are byte-identical.
func Diff(want, got Capture) string {
	if want.Tables != got.Tables {
		return "tables differ:\n" + firstDivergence(want.Tables, got.Tables)
	}
	if want.Trace != "" || got.Trace != "" {
		if d := diffFiles(want.Trace, got.Trace); d != "" {
			return "trace bytes differ:\n" + d
		}
	}
	if want.Metrics != got.Metrics {
		return "metrics differ:\n" + firstDivergence(want.Metrics, got.Metrics)
	}
	return ""
}

// diffContext is how many bytes of the differing line diffFiles shows
// on each side of the first differing byte; a trace is one long line.
const diffContext = 120

// diffFiles compares two files in fixed-size chunks and renders the
// first differing line around its first differing byte, or returns ""
// when they are byte-identical.
func diffFiles(wantPath, gotPath string) string {
	want, err := os.Open(wantPath)
	if err != nil {
		return err.Error()
	}
	defer want.Close()
	got, err := os.Open(gotPath)
	if err != nil {
		return err.Error()
	}
	defer got.Close()
	wbuf, gbuf := make([]byte, 64<<10), make([]byte, 64<<10)
	var off, lineStart int64
	line := 1
	for {
		wn, werr := io.ReadFull(want, wbuf)
		gn, gerr := io.ReadFull(got, gbuf)
		for _, err := range []error{werr, gerr} {
			if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
				return err.Error()
			}
		}
		n := min(wn, gn)
		i := n
		if !bytes.Equal(wbuf[:n], gbuf[:n]) {
			for i = 0; wbuf[i] == gbuf[i]; i++ {
			}
		}
		line += bytes.Count(wbuf[:i], []byte{'\n'})
		if j := bytes.LastIndexByte(wbuf[:i], '\n'); j >= 0 {
			lineStart = off + int64(j) + 1
		}
		if i < n || wn != gn {
			at := off + int64(i)
			return fmt.Sprintf("line %d, column %d:\n  want: %q\n  got:  %q", line, at-lineStart+1,
				lineAround(want, lineStart, at), lineAround(got, lineStart, at))
		}
		if wn < len(wbuf) {
			return "" // both ended together
		}
		off += int64(n)
	}
}

// lineAround returns the line of f starting at offset start, clipped to
// diffContext bytes on each side of offset at.
func lineAround(f *os.File, start, at int64) string {
	from := max(start, at-diffContext)
	buf := make([]byte, at-from+diffContext)
	n, err := f.ReadAt(buf, from)
	if err != nil && err != io.EOF {
		return err.Error()
	}
	buf = buf[:n]
	if i := bytes.IndexByte(buf[at-from:], '\n'); i >= 0 {
		buf = buf[:at-from+int64(i)]
	}
	return string(buf)
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
