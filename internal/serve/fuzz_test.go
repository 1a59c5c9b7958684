package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzSpec drives the spec codec, the daemon's only untrusted input:
// ParseSpec and Canonicalize never panic, every accepted body is one
// valid JSON document, canonical specs are fixed points whose canonical
// JSON decodes back to the same key, accepted reps stay in [1, MaxReps],
// and the removed engine dials (shards, shardpar) are unknown fields.
func FuzzSpec(f *testing.F) {
	for _, seed := range []string{
		// Rows of EXPERIMENTS.md's experiment-ID ↔ API-spec mapping.
		`{"experiment":"fig1"}`,
		`{"experiment":"fig4","reps":2,"scale":8}`,
		`{"experiment":"open-bakeoff","reps":2,"scale":8}`,
		`{"experiment":"fig3t","reps":2,"scale":8,"perturb":"noise,hotplug"}`,
		`{"experiment":"predict-bakeoff","predict":true,"trace":true,"metrics":true,"parallel":2}`,
		// lbbench's malformed specs.
		`{"experiment":"fig1","reps":1,"bogus":true}`,
		`{"experiment":"no-such-figure"}`,
		`{"experiment":"fig1","reps":-1}`,
		`{"experiment":"fig1"} {"experiment":"fig2"}`,
		`not json`,
		`{"experiment":"fig1","perturb":"gremlins"}`,
		// A removed engine dial, an oversized grid and a stray bracket.
		`{"experiment":"fig1","shards":4}`,
		`{"experiment":"fig3t","reps":65536}`,
		`{"experiment":"fig1"}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if removedDial(data) && err == nil {
			t.Fatalf("ParseSpec accepted a removed engine dial: %q", data)
		}
		if err != nil {
			return
		}
		if !json.Valid(data) {
			t.Fatalf("ParseSpec accepted a body that is not one JSON document: %q", data)
		}
		c, err := s.Canonicalize()
		if err != nil {
			return
		}
		if c.Reps < 1 || c.Reps > MaxReps {
			t.Fatalf("canonical reps %d outside [1, %d]", c.Reps, MaxReps)
		}
		again, err := c.Canonicalize()
		if err != nil || again != c {
			t.Fatalf("Canonicalize not idempotent: %+v -> %+v, %v", c, again, err)
		}
		back, err := ParseSpec(c.CanonicalJSON())
		if err != nil {
			t.Fatalf("canonical JSON %s does not parse: %v", c.CanonicalJSON(), err)
		}
		if back, err = back.Canonicalize(); err != nil {
			t.Fatalf("canonical JSON %s does not canonicalize: %v", c.CanonicalJSON(), err)
		}
		if back.Key("v") != c.Key("v") {
			t.Fatalf("key moved across a canonical JSON round trip: %+v vs %+v", back, c)
		}
	})
}

// removedDial reports whether the first JSON object in data names the
// shards or shardpar field in any letter case (encoding/json matches
// field names case-insensitively).
func removedDial(data []byte) bool {
	var fields map[string]json.RawMessage
	if json.NewDecoder(bytes.NewReader(data)).Decode(&fields) != nil {
		return false
	}
	for k := range fields {
		if strings.EqualFold(k, "shards") || strings.EqualFold(k, "shardpar") {
			return true
		}
	}
	return false
}
