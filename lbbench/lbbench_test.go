package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload lists in this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, c := range []struct {
		name      string
		json, src []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.src) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.name, len(c.json), len(c.src))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.src[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", c.name, i, c.json[i], c.src[i])
			}
		}
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every named metric is reported, no op failed, and the
// traced run's output digests equal the untraced run's.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{seed: 7, dur: 300 * time.Millisecond, setupReps: 1, small: true}
			for _, traced := range []bool{false, true} {
				rep, err := measure(w, cfg, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				for _, d := range defs {
					m, ok := rep.Result.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s missing or with the wrong unit: %+v", traced, d.Name, m)
					}
				}
				if len(rep.Result.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics reported, want %d", traced, len(rep.Result.Metrics), len(defs))
				}
				if rep.Result.Attempted == 0 || rep.Result.Failed != 0 || !rep.Result.Correct {
					t.Errorf("trace=%v: %d of %d ops failed: %v", traced, rep.Result.Failed, rep.Result.Attempted, rep.Problems)
				}
			}
		})
	}
}

// TestTracedDigestMismatchFails shows the traced-versus-untraced check
// can fail: a phase whose op output differs from the reference's counts
// that op as failed.
func TestTracedDigestMismatchFails(t *testing.T) {
	ref, tr := newPhase("op"), newPhase("op")
	ref.op(1, digestOf([]byte("a")), true, "")
	ref.op(1, digestOf([]byte("b")), true, "")
	tr.op(1, digestOf([]byte("a")), true, "")
	tr.op(1, digestOf([]byte("c")), true, "")
	tr.compareDigests(ref)
	if tr.failed() != 1 || !tr.bad[1] {
		t.Fatalf("failed ops = %d (%v), want op 1 alone", tr.failed(), tr.bad)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range [][2]string{
		{"repro/internal/sim.(*Core).effSpeed", "sim"},
		{"repro/internal/eventq.(*Sharded).Pop", "eventq"},
		{"repro/internal/analysis/ctrlflow.New", "analysis"},
		{"main.(*timedSched).Enqueue", "lbbench"},
		{"runtime.mallocgc", "runtime"},
		{"internal/runtime/maps.(*Map).getWithKeySmall", "runtime"},
		{"net/http.(*conn).serve", "net_http"},
		{"encoding/json.(*decodeState).object", "encoding_json"},
		{"slices.SortFunc[go.shape.[]*repro/internal/task.Task,...]", "slices"},
		{"crypto/sha256.block", "crypto/sha256"},
		{"gcWriteBarrier", "runtime"},
	} {
		if got := moduleOf(c[0]); got != c[1] {
			t.Errorf("moduleOf(%q) = %q, want %q", c[0], got, c[1])
		}
	}
}

func TestTail(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if q, x := tail(v); q != "p90.00" || x != 90 {
		t.Errorf("tail of 1..100 = %s %v, want p90.00 90", q, x)
	}
	if q, x := tail(v[:12]); q != "max" || x != 12 {
		t.Errorf("tail of 1..12 = %s %v, want max 12", q, x)
	}
}
