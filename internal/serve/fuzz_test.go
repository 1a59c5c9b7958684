package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// FuzzBatch drives POST /v1/batches bodies through the handler, with a
// stub executor that answers at once in place of real runs. No body
// may panic the server. A 200 must list one item per spec of the
// envelope, in order, each in a documented state: a run state (with
// its ID and cache verdict) or "invalid"/"rejected" (with an error).
// Every 4xx must carry the documented error body, one JSON object
// holding one non-empty "error" string.
func FuzzBatch(f *testing.F) {
	for _, seed := range []string{
		`{"specs":[{"experiment":"fig1"}]}`,
		`{"specs":[{"experiment":"fig1","seed":1},{"experiment":"no-such"},{"experiment":"fig1","seed":1},{"experiment":"fig3t","reps":2,"scale":8,"perturb":"noise"}]}`,
		`{"specs":[{"experiment":"fig1","seed":1},{"experiment":"fig1","seed":2},{"experiment":"fig1","seed":3},{"experiment":"fig1","seed":4},{"experiment":"fig1","seed":5},{"experiment":"fig1","seed":6},{"experiment":"fig1","seed":7}]}`,
		`{"specs":[1,"x",null,{},[]]}`,
		`{"specs":[{"experiment":"fig1","shards":4},{"experiment":"fig1","reps":65536}]}`,
		`{"specs":[{"experiment":"fig1","reps":1,"scale":64}],"spec":[1]}`,
		`{"specs":[]}`,
		`{"specs":null}`,
		`{"specs":[{"experiment":"fig1"}]} {"specs":[]}`,
		`{"SPECS":[{"experiment":"fig1"}]}`,
		`[]`,
		`not json`,
		``,
		`{"specs":[` + strings.Repeat(`{"experiment":"fig1"},`, maxBatchSpecs) + `{"experiment":"fig1"}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s := New(Config{Workers: 1, QueueDepth: 4, Version: "fuzz"})
		s.executor = func(spec Spec, _ <-chan struct{}) ([]byte, []byte, error) {
			return []byte(fmt.Sprintf(`{"stub":true,"seed":%d}`, spec.Seed)), nil, nil
		}
		defer s.Drain()
		req := httptest.NewRequest("POST", "/v1/batches", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("status %d with Content-Type %q", w.Code, ct)
		}
		switch {
		case w.Code == http.StatusOK:
			checkBatchItems(t, body, w.Body.Bytes())
		case w.Code >= 400 && w.Code < 500:
			var e errorDoc
			if err := decodeStrict(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("%d error body %q is not {\"error\": \"...\"}: %v", w.Code, w.Body.String(), err)
			}
		default:
			t.Fatalf("status %d for a batch body: %s", w.Code, w.Body.String())
		}
	})
}

// checkBatchItems checks a 200 batch response against the request
// body: one item per spec, in order, each in a documented state.
func checkBatchItems(t *testing.T, body, resp []byte) {
	t.Helper()
	var req struct {
		Specs []json.RawMessage `json:"specs"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		t.Fatalf("200 for a body that is not a batch envelope: %v", err)
	}
	var got batchResponse
	if err := decodeStrict(resp, &got); err != nil {
		t.Fatalf("200 body %q is not a batch response: %v", resp, err)
	}
	if len(got.Items) != len(req.Specs) {
		t.Fatalf("%d items for %d specs", len(got.Items), len(req.Specs))
	}
	for i, it := range got.Items {
		if it.Index != i {
			t.Fatalf("item %d has index %d", i, it.Index)
		}
		switch it.State {
		case "invalid", "rejected":
			if it.Error == "" || it.ID != "" || it.Cache != "" {
				t.Fatalf("item %d %s: %+v, want an error and no run", i, it.State, it)
			}
		case StateQueued, StateRunning, StateDone, StateFailed, StateCancelled:
			if it.ID == "" || it.Error != "" {
				t.Fatalf("item %d %s: %+v, want a run ID and no error", i, it.State, it)
			}
			switch it.Cache {
			case CacheHit, CacheMiss, CacheJoin:
			default:
				t.Fatalf("item %d: cache verdict %q", i, it.Cache)
			}
		default:
			t.Fatalf("item %d: undocumented state %q", i, it.State)
		}
	}
}
