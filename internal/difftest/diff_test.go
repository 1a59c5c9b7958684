package difftest

import (
	"encoding/json"
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
			ref, err := RunExperiment(id, 2, 32, 20100109, Settings{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if ref.Tables == "" {
				t.Fatal("reference run rendered no tables")
			}
			if !json.Valid(ref.Trace) {
				t.Fatalf("reference trace is not valid JSON:\n%.200s", ref.Trace)
			}
			for _, s := range matrix {
				got, err := RunExperiment(id, 2, 32, 20100109, s)
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
			ref, err := RunExperiment(id, 2, 1, 20100109, Settings{Parallelism: 1, Bare: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Settings{
				{Parallelism: 1, Bare: true},
				{Parallelism: 8, Bare: true},
			} {
				got, err := RunExperiment(id, 2, 1, 20100109, s)
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
	for _, seed := range []uint64{1, 2, 20100109} {
		ref, err := RunExperiment(id, 2, 32, seed, Settings{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunExperiment(id, 2, 32, seed, s)
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
