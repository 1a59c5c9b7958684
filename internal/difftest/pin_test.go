package difftest

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
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
	{"open-bakeoff", "f7fbd287b19b3ad4"},
	{"predict-bakeoff", "23bef9761a07a991"},
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
			c, err := RunExperiment(p.id, 1, 8, 20100109, Settings{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, b := range [][]byte{[]byte(c.Tables), c.Trace, []byte(c.Metrics)} {
				h.Write(b)
				h.Write([]byte{0})
			}
			if got := hex.EncodeToString(h.Sum(nil)[:8]); got != p.digest {
				t.Errorf("capture digest %s, pinned %s", got, p.digest)
			}
		})
	}
}
