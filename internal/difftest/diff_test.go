package difftest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"
)

// drivers is the experiment sample the equivalence matrix runs: the
// core paper figures plus the perturbed drivers (fault injection
// exercises hotplug drains, kthread daemons and frequency steps through
// the sharded merge), the analytic fig1 (no simulated cells — its
// capture must still round-trip the harness identically), and the
// open-system bakeoff (mid-run task admission and departure on every
// engine configuration).
var drivers = []string{
	"fig1", "fig2", "fig3t", "fig5", "abl-jit", "noise-omps", "hotplug-churn",
	"open-bakeoff", "predict-bakeoff",
}

// matrix is the engine grid every driver must traverse without changing
// one output byte: grid parallelism {1, 8}. The parallelism-1 leg
// repeats the reference run in the same process, so state leaking
// between runs shows as a divergence too.
var matrix = []Settings{
	{Parallelism: 1},
	{Parallelism: 8},
}

// TestEngineEquivalence is the tentpole guarantee: for every driver the
// grid reproduces the single-worker reference run's tables, trace bytes
// and metrics byte-identically at every parallelism level.
func TestEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix skipped in short mode")
	}
	for _, id := range drivers {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			ref, err := RunExperiment(id, 2, 32, 20100109, Settings{Parallelism: 1}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Tables == "" {
				t.Fatal("reference run rendered no tables")
			}
			if err := validTrace(ref.Trace); err != nil {
				t.Fatalf("reference trace is not a valid JSON trace document: %v", err)
			}
			for _, s := range matrix {
				got, err := RunExperiment(id, 2, 32, 20100109, s, dir)
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if d := Diff(ref, got); d != "" {
					t.Errorf("%v diverges from the reference run:\n%s", s, d)
				}
			}
		})
	}
}

// TestEngineEquivalenceBare runs without trace or metrics sinks —
// exactly what a plain `lbos run` does — at paper scale (scale 1).
func TestEngineEquivalenceBare(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix skipped in short mode")
	}
	for _, id := range []string{"fig5", "noise-omps"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			ref, err := RunExperiment(id, 2, 1, 20100109, Settings{Parallelism: 1, Bare: true}, "")
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Settings{
				{Parallelism: 1, Bare: true},
				{Parallelism: 8, Bare: true},
			} {
				got, err := RunExperiment(id, 2, 1, 20100109, s, "")
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if d := Diff(ref, got); d != "" {
					t.Errorf("%v diverges from the reference run:\n%s", s, d)
				}
			}
		})
	}
}

// TestEngineEquivalenceAcrossSeeds guards the matrix itself: the grid
// must track the reference run for other seeds too, and different seeds
// must produce different output (otherwise the comparison above proves
// nothing).
func TestEngineEquivalenceAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("differential matrix skipped in short mode")
	}
	const id = "abl-jit" // seed-sensitive: tabulates run-time variation
	s := Settings{Parallelism: 8}
	tables := map[string]bool{}
	dir := t.TempDir()
	for _, seed := range []uint64{1, 2, 20100109} {
		ref, err := RunExperiment(id, 2, 32, seed, Settings{Parallelism: 1}, dir)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunExperiment(id, 2, 32, seed, s, dir)
		if err != nil {
			t.Fatal(err)
		}
		if d := Diff(ref, got); d != "" {
			t.Errorf("seed %d: %v diverges from the reference run:\n%s", seed, s, d)
		}
		tables[ref.Tables] = true
	}
	if len(tables) < 2 {
		t.Error("every seed rendered identical tables — the equivalence comparison has no power")
	}
}

// validTrace checks that the file is a Chrome trace document, one
// object holding a traceEvents array of JSON values, decoding it one
// event at a time so a large trace is never held whole.
func validTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	expect := func(want ...json.Token) error {
		for _, w := range want {
			if tok, err := dec.Token(); err != nil || tok != w {
				return fmt.Errorf("want %v, got %v (%v)", w, tok, err)
			}
		}
		return nil
	}
	if err := expect(json.Delim('{'), "traceEvents", json.Delim('[')); err != nil {
		return err
	}
	for dec.More() {
		var ev json.RawMessage
		if err := dec.Decode(&ev); err != nil {
			return err
		}
	}
	if err := expect(json.Delim(']'), json.Delim('}')); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("data after the document")
	}
	return nil
}

// Diff names the first differing line of two spooled traces and the
// column of its first differing byte, and finds identical traces equal.
func TestDiffNamesFirstTraceLine(t *testing.T) {
	dir := t.TempDir()
	spool := func(s string) Capture {
		f, err := os.CreateTemp(dir, "trace-*.json")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString(s); err != nil {
			t.Fatal(err)
		}
		return Capture{Trace: f.Name()}
	}
	ref := spool("{\n\"a\":1,\"b\":2\n}")
	for _, c := range []struct{ got, want string }{
		{"{\n\"a\":1,\"b\":2\n}", ""},
		{"{\n\"a\":1,\"b\":3\n}", "trace bytes differ:\nline 2, column 11:\n  want: \"\\\"a\\\":1,\\\"b\\\":2\"\n  got:  \"\\\"a\\\":1,\\\"b\\\":3\""},
		{"{\n\"a\":1", "trace bytes differ:\nline 2, column 6:\n  want: \"\\\"a\\\":1,\\\"b\\\":2\"\n  got:  \"\\\"a\\\":1\""},
	} {
		if d := Diff(ref, spool(c.got)); d != c.want {
			t.Errorf("Diff against %q:\n%s\nwant\n%s", c.got, d, c.want)
		}
	}
}
