package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/exp"
)

// pinned are digests of contended experiment captures (tables, trace
// bytes and metrics) at a small scale. The equivalence matrix compares
// engine settings with each other at one commit; these catch a float bit
// that moves between commits. noise-omps runs CG on Tigerton's 4-core
// front-side-bus domains, so it depends on the memory-bandwidth factor;
// ext-smt runs EP on Nehalem, where the SMT factor of the same
// effective-speed computation decides the result. open-bakeoff and
// predict-bakeoff run open arrival streams, where task churn drives the
// machine's live-task list and speedbal's rescan adopts each arrival.
// fig2 (3 threads on 2 cores) and fig3t (EP on Tigerton) are the
// closed workload's other two experiments, fixed thread populations
// under every balancer, where the order of same-time stop events and
// balancer wakes decides the result. A deliberate output change
// re-records them with the value the failure prints.
var pinned = []struct {
	id     string
	digest string
}{
	{"noise-omps", "6bad360dd8acbbdf"},
	{"ext-smt", "1edfd8490708c1b5"},
	{"open-bakeoff", "cdea58eb9902aceb"},
	{"predict-bakeoff", "00fe08260e2ecd0e"},
	{"fig2", "8967366c6a7543f5"},
	{"fig3t", "984a2426b22bc6c8"},
}

func TestPinnedContendedCaptures(t *testing.T) {
	if testing.Short() {
		t.Skip("pinned captures skipped in short mode")
	}
	for _, p := range pinned {
		t.Run(p.id, func(t *testing.T) {
			t.Parallel()
			c, err := RunExperiment(p.id, 1, 8, 20100109, Settings{Parallelism: 1}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			got := digest(t, strings.NewReader(c.Tables), traceOf(t, c), strings.NewReader(c.Metrics))
			if got != p.digest {
				t.Errorf("capture digest %s, pinned %s", got, p.digest)
			}
		})
	}
}

// registryPins holds two digests of every registered experiment's
// capture at reps 1, scale 32, seed 20100109: one of the rendered
// tables, and one of the trace bytes plus the metrics tables. A change
// that must not move an output byte keeps both; a change to what a run
// records but not to what it measures moves only the second. A
// deliberate output change re-records a row with the line its failure
// prints.
var registryPins = []struct {
	id, tables, observed string
}{
	{"abl-horizon", "9510a6948fb8a2e4", "829aa64dc3102bfa"},
	{"abl-int", "1ae902a18822d772", "f26ea2745751622d"},
	{"abl-jit", "5df3517357af9283", "deeabe535f3bae88"},
	{"abl-numa", "3c0e2197625a210b", "7e0bc7c3bce9cba4"},
	{"abl-pull", "8c49516bbdcfa806", "af502054786d32c6"},
	{"abl-ts", "ba37ee5d8e00d6f0", "cb1405ef953b5fb9"},
	{"ext-measure", "4f46a146d1e0656e", "5c119edc26be77da"},
	{"ext-smt", "c9734ba4c174009e", "c6f7bac15be405d5"},
	{"ext-swap", "9dec8d9a9b255667", "bb1dffd86f4efd46"},
	{"fig1", "ff14193fe71fe1db", "0d10260a84d2cc6f"},
	{"fig2", "79cfc3953c597f69", "3abf9f9c22f9d238"},
	{"fig3b", "c50f29d37ad0fea5", "7c7dcde38aa1f40e"},
	{"fig3t", "913f7968d7393188", "3e1c2b3895477203"},
	{"fig4", "6107f2ada284ae4f", "a905491ee1d6b63a"},
	{"fig4omp", "6c0d55d0f1f72011", "c4898fdac0c554b4"},
	{"fig5", "b7f77ef862b3ead6", "cf11911eda1307f4"},
	{"fig6", "2ace200059606950", "ee4affc3db4e0342"},
	{"hotplug-churn", "a175d05d87f4feea", "2efc60cce05162ad"},
	{"noise-omps", "dfbf3f95017d259e", "2168b94067a1e32b"},
	{"ompS", "2ea691c081b64b2e", "2e3c5b4e5944362f"},
	{"open-bakeoff", "1fc91b2a5fed441e", "19ebff36d8c50368"},
	{"predict-bakeoff", "959f0b1a6e5fc5fd", "272a1003251a2322"},
	{"table1", "5b8847737946502e", "0d10260a84d2cc6f"},
	{"table2", "1d973c11bffd14d9", "cc8f93c009288155"},
	{"table3", "db2e7e489dcd1876", "a905491ee1d6b63a"},
}

// TestEveryExperimentPinned fails when a registered experiment has no
// row in registryPins, so a new experiment cannot land unpinned, and
// when a row names an experiment that is no longer registered.
func TestEveryExperimentPinned(t *testing.T) {
	rows := map[string]bool{}
	for _, p := range registryPins {
		if rows[p.id] {
			t.Errorf("%s is pinned twice", p.id)
		}
		rows[p.id] = true
		if _, err := exp.ByID(p.id); err != nil {
			t.Errorf("pinned %s is not registered", p.id)
		}
	}
	for _, e := range exp.All() {
		if !rows[e.ID] {
			t.Errorf("registered experiment %s has no pin", e.ID)
		}
	}
}

func TestRegistryPins(t *testing.T) {
	if testing.Short() {
		t.Skip("registry pins skipped in short mode")
	}
	for _, p := range registryPins {
		t.Run(p.id, func(t *testing.T) {
			t.Parallel()
			c, err := RunExperiment(p.id, 1, 32, 20100109, Settings{Parallelism: 1}, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			tables := digest(t, strings.NewReader(c.Tables))
			observed := digest(t, traceOf(t, c), strings.NewReader(c.Metrics))
			if tables != p.tables || observed != p.observed {
				t.Errorf("tables %s, observed %s; pinned %s, %s; re-record as\n\t{%q, %q, %q},",
					tables, observed, p.tables, p.observed, p.id, tables, observed)
			}
		})
	}
}

// digest is the first 8 bytes of the SHA-256 of parts, each followed by
// a zero byte, in hex.
func digest(t *testing.T, parts ...io.Reader) string {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		if _, err := io.Copy(h, p); err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// traceOf opens c's spooled trace for the rest of the test.
func traceOf(t *testing.T, c Capture) io.Reader {
	t.Helper()
	f, err := os.Open(c.Trace)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}
