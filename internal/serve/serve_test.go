package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exp"
)

// doReq drives one request through the server's handler tree.
func doReq(t *testing.T, h http.Handler, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body != "" {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	} else {
		req = httptest.NewRequest(method, target, nil)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// stubExecutor returns a deterministic spec-driven executor for tests
// that must not pay for real experiment runs. Behaviour is selected by
// seed: < 100 blocks on gate, 100–199 blocks until interrupted,
// ≥ 200 returns instantly. started receives one token per execution
// entered.
func stubExecutor(gate chan struct{}, started chan uint64) func(Spec, <-chan struct{}) ([]byte, []byte, error) {
	return func(spec Spec, interrupt <-chan struct{}) ([]byte, []byte, error) {
		if started != nil {
			started <- spec.Seed
		}
		switch {
		case spec.Seed < 100:
			<-gate
		case spec.Seed < 200:
			<-interrupt
			return nil, nil, fmt.Errorf("stub: %w", exp.ErrInterrupted)
		}
		return []byte(fmt.Sprintf(`{"stub":true,"experiment":%q,"seed":%d}`, spec.Experiment, spec.Seed)), nil, nil
	}
}

// The content-addressed cache contract: POSTing the same spec twice
// returns byte-identical bodies with the second marked as a hit, and a
// fresh server (fresh cache) produces the same bytes again — cached
// and fresh results are indistinguishable, difftest-style.
func TestCacheHitByteIdentical(t *testing.T) {
	spec := `{"experiment":"fig1","reps":2,"scale":8}`
	newServer := func() *Server {
		return New(Config{Workers: 1, QueueDepth: 4, Version: "test"})
	}
	a := newServer()
	defer a.Drain()

	first := doReq(t, a.Handler(), "POST", "/v1/runs?wait=1", spec)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST: %d %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Lbos-Cache"); got != CacheMiss {
		t.Errorf("first POST cache verdict %q, want %q", got, CacheMiss)
	}
	second := doReq(t, a.Handler(), "POST", "/v1/runs?wait=1", spec)
	if second.Code != http.StatusOK {
		t.Fatalf("second POST: %d %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Lbos-Cache"); got != CacheHit {
		t.Errorf("second POST cache verdict %q, want %q", got, CacheHit)
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cache hit body differs from the fresh body")
	}

	// A separate server with an empty cache must produce the same bytes
	// — the cached copy is provably what a fresh execution returns.
	b := newServer()
	defer b.Drain()
	fresh := doReq(t, b.Handler(), "POST", "/v1/runs?wait=1", spec)
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh-server POST: %d %s", fresh.Code, fresh.Body.String())
	}
	if fresh.Body.String() != first.Body.String() {
		t.Error("fresh-server body differs: results are not a pure function of (version, spec)")
	}

	// The document is well-formed and self-describing.
	var doc ResultDoc
	if err := json.Unmarshal(first.Body.Bytes(), &doc); err != nil {
		t.Fatalf("result document is not JSON: %v", err)
	}
	if doc.Version != "test" || doc.Experiment.ID != "fig1" || len(doc.Tables) == 0 {
		t.Errorf("degenerate result doc: version=%q exp=%q tables=%d", doc.Version, doc.Experiment.ID, len(doc.Tables))
	}
	want, _ := Spec{Experiment: "fig1", Reps: 2, Scale: 8}.Canonicalize()
	if doc.ID != want.Key("test") {
		t.Errorf("doc ID %s is not the spec's content address %s", doc.ID, want.Key("test"))
	}
}

// The bounded queue sheds load with 429 + Retry-After instead of
// growing: with one worker parked on a gate and a one-slot queue,
// exactly one of a flood of distinct submissions is admitted.
func TestBackpressureSheds(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Version: "test"})
	gate := make(chan struct{})
	started := make(chan uint64, 64)
	s.executor = stubExecutor(gate, started)
	defer func() {
		close(gate)
		s.Drain()
	}()

	submit := func(seed uint64) *httptest.ResponseRecorder {
		return doReq(t, s.Handler(), "POST", "/v1/runs",
			fmt.Sprintf(`{"experiment":"fig1","seed":%d}`, seed))
	}
	// Occupy the worker and wait until it is provably inside the stub.
	if w := submit(1); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", w.Code, w.Body.String())
	}
	<-started

	// The queue has one slot: of 50 more distinct specs, exactly one is
	// admitted and 49 are shed.
	accepted, shed := 0, 0
	for seed := uint64(2); seed <= 51; seed++ {
		w := submit(seed)
		switch w.Code {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			shed++
			if got := w.Header().Get("Retry-After"); got != "1" {
				t.Errorf("429 Retry-After %q, want \"1\"", got)
			}
		default:
			t.Fatalf("submit seed %d: unexpected %d %s", seed, w.Code, w.Body.String())
		}
	}
	if accepted != 1 || shed != 49 {
		t.Errorf("accepted %d shed %d, want 1/49 (bounded queue must shed, not grow)", accepted, shed)
	}

	// Run metadata stayed bounded too: only the admitted runs exist.
	s.mu.Lock()
	runCount := len(s.runs)
	s.mu.Unlock()
	if runCount != 2 {
		t.Errorf("%d run records after the flood, want 2", runCount)
	}
}

// A duplicate submission joins the in-flight run instead of executing
// again, and both observers see the same result when it lands.
func TestDuplicateJoinsInFlight(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Version: "test"})
	gate := make(chan struct{})
	started := make(chan uint64, 4)
	s.executor = stubExecutor(gate, started)
	defer s.Drain()

	spec := `{"experiment":"fig1","seed":7}`
	if w := doReq(t, s.Handler(), "POST", "/v1/runs", spec); w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", w.Code)
	}
	<-started
	dup := doReq(t, s.Handler(), "POST", "/v1/runs", spec)
	if dup.Code != http.StatusAccepted {
		t.Fatalf("dup submit: %d", dup.Code)
	}
	var st StatusDoc
	if err := json.Unmarshal(dup.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache != CacheJoin {
		t.Errorf("duplicate verdict %q, want %q", st.Cache, CacheJoin)
	}
	close(gate)
	// A waiting resubmission drains with the joined run's result.
	w := doReq(t, s.Handler(), "POST", "/v1/runs?wait=1", spec)
	if w.Code != http.StatusOK {
		t.Fatalf("wait resubmit: %d %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), `"stub":true`) {
		t.Errorf("joined result body: %s", w.Body.String())
	}
}

// DELETE cancels: a queued run never starts, a running run aborts via
// the interrupt channel that exp.Runner honours between cells.
func TestCancelQueuedAndRunning(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Version: "test"})
	started := make(chan uint64, 4)
	s.executor = stubExecutor(nil, started)
	defer s.Drain()

	// Seed 100: the stub blocks until interrupted.
	specA, _ := Spec{Experiment: "fig1", Seed: 100}.Canonicalize()
	specB, _ := Spec{Experiment: "fig1", Seed: 101}.Canonicalize()
	rA, verdict, err := s.submit(specA)
	if err != nil || verdict != CacheMiss {
		t.Fatalf("submit A: %v %q", err, verdict)
	}
	<-started // A is running (blocked on its interrupt)
	rB, _, err := s.submit(specB)
	if err != nil {
		t.Fatalf("submit B: %v", err)
	}

	// Cancel the queued run first, then the running one.
	if w := doReq(t, s.Handler(), "DELETE", "/v1/runs/"+rB.id, ""); w.Code != http.StatusAccepted {
		t.Fatalf("DELETE B: %d %s", w.Code, w.Body.String())
	}
	if w := doReq(t, s.Handler(), "DELETE", "/v1/runs/"+rA.id, ""); w.Code != http.StatusAccepted {
		t.Fatalf("DELETE A: %d %s", w.Code, w.Body.String())
	}
	<-rA.done
	<-rB.done
	if st, msg, _, _, _ := rA.snapshot(); st != StateCancelled {
		t.Errorf("running run: state %q (%s), want cancelled", st, msg)
	}
	if st, msg, _, _, _ := rB.snapshot(); st != StateCancelled || !strings.Contains(msg, "before execution") {
		t.Errorf("queued run: state %q (%s), want cancelled-before-start", st, msg)
	}

	// Cancelling a terminal run is a conflict, not a state change.
	if w := doReq(t, s.Handler(), "DELETE", "/v1/runs/"+rA.id, ""); w.Code != http.StatusConflict {
		t.Errorf("DELETE terminal run: %d, want 409", w.Code)
	}
	// Fetching a cancelled result reports the cancellation.
	if w := doReq(t, s.Handler(), "GET", "/v1/runs/"+rA.id+"/result", ""); w.Code != http.StatusConflict {
		t.Errorf("GET cancelled result: %d, want 409", w.Code)
	}

	// A resubmission after cancellation executes afresh (seed ≥ 200:
	// instant success).
	specC, _ := Spec{Experiment: "fig1", Seed: 200}.Canonicalize()
	rC, verdict, err := s.submit(specC)
	if err != nil || verdict != CacheMiss {
		t.Fatalf("submit C: %v %q", err, verdict)
	}
	<-rC.done
	if st, _, _, _, _ := rC.snapshot(); st != StateDone {
		t.Errorf("post-cancel run state %q, want done", st)
	}
}

// A run whose record aged out of the run table is still terminal:
// status answers it from the cache as done, and cancel must answer the
// 409 docs/api.md promises for a terminal run, not a 404.
func TestCancelAgedOutRunConflicts(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Version: "test"})
	s.executor = stubExecutor(nil, nil)
	defer s.Drain()

	// Seeds ≥ 200 finish at once; maxRuns+8 of them age the first out.
	var first string
	for i := 0; i < maxRuns+8; i++ {
		spec, _ := Spec{Experiment: "fig1", Seed: uint64(200 + i)}.Canonicalize()
		r, _, err := s.submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		<-r.done
		if i == 0 {
			first = r.id
		}
	}
	s.mu.Lock()
	_, kept := s.runs[first]
	s.mu.Unlock()
	if kept {
		t.Fatalf("run %s still has a record after %d later runs", first, maxRuns+7)
	}
	w := doReq(t, s.Handler(), "GET", "/v1/runs/"+first, "")
	var doc StatusDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || w.Code != http.StatusOK || doc.State != StateDone {
		t.Fatalf("GET aged-out run: %d %s", w.Code, w.Body.String())
	}
	if w := doReq(t, s.Handler(), "DELETE", "/v1/runs/"+first, ""); w.Code != http.StatusConflict {
		t.Errorf("DELETE aged-out terminal run: %d %s, want 409", w.Code, w.Body.String())
	}
}

// Batch submission admits per item: valid specs queue or join, invalid
// ones report errors, and overflow is rejected item-by-item.
func TestBatchSubmission(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, Version: "test"})
	gate := make(chan struct{})
	started := make(chan uint64, 8)
	s.executor = stubExecutor(gate, started)
	defer func() {
		close(gate)
		s.Drain()
	}()

	// Park the worker so batch admission is deterministic.
	blocker, _ := Spec{Experiment: "fig1", Seed: 1}.Canonicalize()
	if _, _, err := s.submit(blocker); err != nil {
		t.Fatal(err)
	}
	<-started

	batch := `{"specs":[
		{"experiment":"fig1","seed":1},
		{"experiment":"no-such"},
		{"experiment":"fig1","seed":2},
		{"experiment":"fig1","seed":3}
	]}`
	w := doReq(t, s.Handler(), "POST", "/v1/batches", batch)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", w.Code, w.Body.String())
	}
	var resp batchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("%d items, want 4", len(resp.Items))
	}
	if resp.Items[0].Cache != CacheJoin {
		t.Errorf("item 0: %+v, want join with the parked run", resp.Items[0])
	}
	if resp.Items[1].State != "invalid" || resp.Items[1].Error == "" {
		t.Errorf("item 1: %+v, want invalid", resp.Items[1])
	}
	if resp.Items[2].State != StateQueued || resp.Items[2].Cache != CacheMiss {
		t.Errorf("item 2: %+v, want queued miss", resp.Items[2])
	}
	if resp.Items[3].State != "rejected" {
		t.Errorf("item 3: %+v, want rejected (queue full)", resp.Items[3])
	}
}

// The batch envelope decodes as strictly as a spec: a misspelt field
// is a 400, not a silently ignored key.
func TestBatchRejectsUnknownFields(t *testing.T) {
	s := New(Config{Workers: 1, Version: "test"})
	s.executor = stubExecutor(nil, nil)
	defer s.Drain()
	w := doReq(t, s.Handler(), "POST", "/v1/batches",
		`{"specs":[{"experiment":"fig1","reps":1,"scale":64}],"spec":[1]}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("batch with unknown field: %d %s, want 400", w.Code, w.Body.String())
	}
	var e errorDoc
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
		t.Fatalf("error body %q: %v", w.Body.String(), err)
	}
	if want := `invalid batch: json: unknown field "spec"`; e.Error != want {
		t.Errorf("error %q, want %q", e.Error, want)
	}
}

// Result formats: the JSON document renders as text tables and CSV,
// and the trace endpoint serves the Chrome stream when requested.
func TestResultFormatsAndTrace(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, Version: "test"})
	defer s.Drain()

	w := doReq(t, s.Handler(), "POST", "/v1/runs?wait=1",
		`{"experiment":"fig1","reps":1,"scale":8,"trace":true,"metrics":true}`)
	if w.Code != http.StatusOK {
		t.Fatalf("POST: %d %s", w.Code, w.Body.String())
	}
	var doc ResultDoc
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceBytes == 0 {
		t.Error("trace requested but trace_bytes is 0")
	}

	text := doReq(t, s.Handler(), "GET", "/v1/runs/"+doc.ID+"/result?format=text", "")
	if text.Code != http.StatusOK || !strings.Contains(text.Body.String(), "== ") {
		t.Errorf("text format: %d %q", text.Code, firstLine(text.Body.String()))
	}
	csv := doReq(t, s.Handler(), "GET", "/v1/runs/"+doc.ID+"/result?format=csv", "")
	if csv.Code != http.StatusOK || !strings.HasPrefix(csv.Body.String(), "# table: ") {
		t.Errorf("csv format: %d %q", csv.Code, firstLine(csv.Body.String()))
	}
	if w := doReq(t, s.Handler(), "GET", "/v1/runs/"+doc.ID+"/result?format=yaml", ""); w.Code != http.StatusBadRequest {
		t.Errorf("unknown format: %d, want 400", w.Code)
	}
	tr := doReq(t, s.Handler(), "GET", "/v1/runs/"+doc.ID+"/trace", "")
	if tr.Code != http.StatusOK || tr.Body.Len() != doc.TraceBytes {
		t.Errorf("trace: %d, %d bytes, want %d", tr.Code, tr.Body.Len(), doc.TraceBytes)
	}

	// A spec without tracing 404s on the trace endpoint.
	w2 := doReq(t, s.Handler(), "POST", "/v1/runs?wait=1", `{"experiment":"fig1","reps":1,"scale":8}`)
	var doc2 ResultDoc
	if err := json.Unmarshal(w2.Body.Bytes(), &doc2); err != nil {
		t.Fatal(err)
	}
	if w := doReq(t, s.Handler(), "GET", "/v1/runs/"+doc2.ID+"/trace", ""); w.Code != http.StatusNotFound {
		t.Errorf("trace without tracing: %d, want 404", w.Code)
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Submission validation surfaces as 400 with a JSON error body.
func TestSubmitValidation(t *testing.T) {
	s := New(Config{Workers: 1, Version: "test"})
	defer s.Drain()
	for _, body := range []string{
		``,
		`{`,
		`{"experiment":"no-such-experiment"}`,
		`{"experiment":"fig1","bogus":1}`,
		`{"experiment":"fig1","perturb":"zap"}`,
		`{"experiment":"fig1","reps":-1}`,
		`{"experiment":"fig3t","reps":65536}`,
		`{"experiment":"fig1","shards":4}`,
		`{"experiment":"fig1","shardpar":true}`,
	} {
		w := doReq(t, s.Handler(), "POST", "/v1/runs", body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("POST %q: %d, want 400", body, w.Code)
		}
		var e errorDoc
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("POST %q: error body %q", body, w.Body.String())
		}
	}
	if w := doReq(t, s.Handler(), "GET", "/v1/runs/deadbeef", ""); w.Code != http.StatusNotFound {
		t.Errorf("GET unknown run: %d, want 404", w.Code)
	}
}

// Drain stops admission with 503 and reports draining on healthz.
func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{Workers: 1, Version: "test"})
	s.executor = stubExecutor(nil, nil)
	s.Drain()
	if w := doReq(t, s.Handler(), "POST", "/v1/runs", `{"experiment":"fig1","seed":200}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: %d, want 503", w.Code)
	}
	w := doReq(t, s.Handler(), "GET", "/v1/healthz", "")
	var h healthDoc
	if err := json.Unmarshal(w.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("healthz status %q, want draining", h.Status)
	}
	// Drain is idempotent.
	s.Drain()
}

// The registry, health and metrics endpoints answer.
func TestIntrospectionEndpoints(t *testing.T) {
	s := New(Config{Workers: 1, Version: "test"})
	defer s.Drain()

	w := doReq(t, s.Handler(), "GET", "/v1/experiments", "")
	var infos []ExperimentInfo
	if err := json.Unmarshal(w.Body.Bytes(), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != len(exp.All()) {
		t.Errorf("%d experiments listed, registry has %d", len(infos), len(exp.All()))
	}

	h := doReq(t, s.Handler(), "GET", "/v1/healthz", "")
	if h.Code != http.StatusOK || !strings.Contains(h.Body.String(), `"status": "ok"`) {
		t.Errorf("healthz: %d %s", h.Code, h.Body.String())
	}
	m := doReq(t, s.Handler(), "GET", "/v1/metricsz", "")
	if m.Code != http.StatusOK || !strings.Contains(m.Body.String(), `"cache"`) {
		t.Errorf("metricsz: %d", m.Code)
	}
}

// Different code versions address different cache slots: the same spec
// on servers built from different versions never shares bytes.
func TestVersionPartitionsCache(t *testing.T) {
	a := New(Config{Workers: 1, Version: "v1"})
	b := New(Config{Workers: 1, Version: "v2"})
	a.executor = stubExecutor(nil, nil)
	b.executor = stubExecutor(nil, nil)
	defer a.Drain()
	defer b.Drain()

	spec := `{"experiment":"fig1","seed":200}`
	wa := doReq(t, a.Handler(), "POST", "/v1/runs?wait=1", spec)
	wb := doReq(t, b.Handler(), "POST", "/v1/runs?wait=1", spec)
	if wa.Code != http.StatusOK || wb.Code != http.StatusOK {
		t.Fatalf("submits: %d %d", wa.Code, wb.Code)
	}
	ca, _ := Spec{Experiment: "fig1", Seed: 200}.Canonicalize()
	if ca.Key("v1") == ca.Key("v2") {
		t.Error("cache keys do not separate code versions")
	}
	if s := doReq(t, a.Handler(), "GET", "/v1/runs/"+ca.Key("v2"), ""); s.Code != http.StatusNotFound {
		t.Errorf("v2 key resolved on the v1 server: %d", s.Code)
	}
}

// A failing experiment reports failed, not a daemon crash, and the
// error surfaces on both wait and status paths.
func TestRunFailureIsContained(t *testing.T) {
	s := New(Config{Workers: 1, Version: "test"})
	s.executor = func(Spec, <-chan struct{}) ([]byte, []byte, error) {
		return nil, nil, fmt.Errorf("synthetic failure")
	}
	defer s.Drain()
	w := doReq(t, s.Handler(), "POST", "/v1/runs?wait=1", `{"experiment":"fig1"}`)
	if w.Code != http.StatusInternalServerError || !strings.Contains(w.Body.String(), "synthetic failure") {
		t.Errorf("failed run: %d %s", w.Code, w.Body.String())
	}
	// The daemon still serves.
	if h := doReq(t, s.Handler(), "GET", "/v1/healthz", ""); h.Code != http.StatusOK {
		t.Errorf("healthz after failure: %d", h.Code)
	}
}
