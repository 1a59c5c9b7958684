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
// effective-speed computation decides the result. A deliberate output
// change re-records them with the value the failure prints.
var pinned = []struct {
	id     string
	digest string
}{
	{"noise-omps", "6bad360dd8acbbdf"},
	{"ext-smt", "1edfd8490708c1b5"},
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
