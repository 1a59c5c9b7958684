package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// goldenRuns pin the report. Each golden file holds the stdout of the
// flag set at any -parallel.
var goldenRuns = []struct{ name, args string }{
	{"iters10", "-iters 10"},
	{"baseline", "-iters 10 -baseline"},
	{"competitors", "-iters 10 -baseline -hog 3 -makej 4"},
	{"nehalem-openmp", "-machine nehalem -threads 12 -iters 8 -model openmp"},
	{"barcelona-upc-sleep", "-machine barcelona -cores 8 -threads 10 -iters 6 -model upc-sleep -baseline"},
	{"tuned", "-iters 6 -interval 50 -threshold 0.8 -seed 7 -baseline"},
	{"smp4-timeline", "-machine smp4 -threads 6 -iters 4 -timeline"},
}

// runCmd runs the command and fails the test unless it exits 0.
func runCmd(t *testing.T, args string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(strings.Fields(args), &out, &errb); code != 0 {
		t.Fatalf("speedbalance %s: exit %d\n%s", args, code, errb.String())
	}
	return out.String()
}

func TestGoldenReports(t *testing.T) {
	for _, g := range goldenRuns {
		want, err := os.ReadFile(filepath.Join("testdata", g.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []string{"1", "3"} {
			args := g.args + " -parallel " + par
			if got := runCmd(t, args); got != string(want) {
				t.Errorf("speedbalance %s:\ngot:\n%s\nwant:\n%s", args, got, want)
			}
		}
	}
}

// The chart observes the run: everything before it is the report the
// same flags print without -timeline.
func TestTimelineKeepsReport(t *testing.T) {
	for _, args := range []string{"-machine smp4 -threads 6 -iters 4", "-iters 10 -hog 3 -makej 4"} {
		plain := runCmd(t, args)
		charted := runCmd(t, args+" -timeline")
		if !strings.HasPrefix(charted, plain+"\n") {
			t.Errorf("speedbalance %s -timeline does not start with the plain report:\n%s", args, charted)
		}
	}
}

// An ungrouped task (the cpu-hog) is drawn under its name, not as idle,
// and utilisation is the core's exact busy share: core 1 ran make jobs
// and app threads for 93% of the run, though 37 of its 39 samples (95%)
// caught it busy.
func TestTimelineUngroupedTaskAndBusyShare(t *testing.T) {
	out := runCmd(t, "-iters 10 -hog 3 -makej 4 -timeline")
	if !strings.Contains(out, "  b=cpu-hog.3") {
		t.Fatalf("legend does not name the cpu-hog:\n%s", out)
	}
	var row string
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "core  3 ") {
			row = strings.TrimPrefix(l, "core  3 ")
		}
	}
	if len(row) != 39 || strings.Contains(row, ".") || strings.Count(row, "b") != 37 {
		t.Errorf("core 3 row %q: want 39 busy columns, 37 of them the hog's 'b'", row)
	}
	if !strings.Contains(out, "core1   93%") || !strings.Contains(out, "core3  100%") {
		t.Errorf("utilisation is not the busy share:\n%s", out)
	}
}

// The command runs the paper's speedbalancer, whose NUMA blocking keeps
// every Barcelona thread on the node of the core it was pinned to:
// thread i starts on core i mod 8, and node = core/4.
func TestSpeedRunKeepsNUMANodes(t *testing.T) {
	out := runCmd(t, "-machine barcelona -cores 8 -threads 10 -iters 6 -model upc-sleep")
	threads := 0
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) != 5 || !strings.HasPrefix(f[0], "app.") {
			continue
		}
		i, err := strconv.Atoi(strings.TrimPrefix(f[0], "app."))
		if err != nil {
			t.Fatalf("report line %q: %v", l, err)
		}
		core, err := strconv.Atoi(f[4])
		if err != nil {
			t.Fatalf("report line %q: %v", l, err)
		}
		if core/4 != i%8/4 {
			t.Errorf("%s ended on core %d (node %d), pinned to core %d (node %d)",
				f[0], core, core/4, i%8, i%8/4)
		}
		threads++
	}
	if threads != 10 {
		t.Fatalf("report lists %d threads, want 10:\n%s", threads, out)
	}
}

// Flag values the machine cannot honour exit 2 with one line naming the
// flag, before any run starts.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range []string{"-threads 0", "-hog 99", "-cores 40"} {
		var out, errb bytes.Buffer
		if code := run(strings.Fields(args), &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed a report:\n%s", args, out.String())
		}
		msg := errb.String()
		if strings.Count(msg, "\n") != 1 || !strings.Contains(msg, args) {
			t.Errorf("%s: stderr %q, want one line naming the flag", args, msg)
		}
	}
}
