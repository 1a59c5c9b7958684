// Package serve is the HTTP serving layer of the simulator — the
// engine behind the `lbosd` daemon. It accepts experiment specs as JSON
// (POST /v1/runs, POST /v1/batches), validates them against the
// internal/exp registry, executes them on a bounded worker pool with
// per-request cancellation, and streams results back as JSON, CSV or
// rendered text tables, plus optional Chrome trace-event streams.
//
// The core is a content-addressed result cache: every canonical spec
// hashes — together with the running code version — to a SHA-256 key
// (Spec.Key), and because the whole stack is deterministic (README
// "Determinism policy"), the result bytes are a pure function of that
// key. A hit therefore bypasses execution entirely and replays the
// exact bytes a fresh run would produce; no invalidation is ever
// needed, only LRU memory bounding (Cache).
//
// Backpressure is explicit: submissions land on a bounded queue, and
// when it is full the server sheds load with 429 + Retry-After instead
// of growing memory. Admission control under concurrent job streams
// follows the argument in Berg et al., "Towards Optimality in Parallel
// Job Scheduling" (PAPERS.md): with a fixed worker pool, refusing
// excess work at the door beats queueing it unboundedly.
//
// Determinism boundary: everything *inside* a run is simulated time and
// seeded randomness, same as `lbos run`. The serving shell around it is
// operational — wall-clock latency histograms (via internal/clock, the
// sanctioned stopwatch) and request counters live outside the
// bit-identical contract and are exposed on /v1/metricsz, never mixed
// into result documents.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/clock"
	"repro/internal/exp"
	"repro/internal/metrics"
)

// retryAfterSeconds is the retry delay a 429 response advertises.
const retryAfterSeconds = 1

// Config tunes a Server.
type Config struct {
	// Workers is the number of concurrent experiment executions
	// (default 2; each execution may itself fan out per Spec.Parallel).
	Workers int
	// QueueDepth bounds the submission queue; a full queue sheds new
	// runs with 429 (default 16).
	QueueDepth int
	// CacheBytes bounds the result cache (default 256 MiB).
	CacheBytes int64
	// Version overrides the code version in cache keys (tests pin it;
	// "" resolves CodeVersion()).
	Version string
	// Log receives operational progress lines (nil discards).
	Log io.Writer
}

// Run states reported by the API.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Cache verdicts reported on submission.
const (
	// CacheHit: the result existed before this submission; no execution.
	CacheHit = "hit"
	// CacheMiss: this submission enqueued a fresh execution.
	CacheMiss = "miss"
	// CacheJoin: an identical spec was already queued or running; this
	// submission attached to it instead of executing again.
	CacheJoin = "join"
)

// maxRuns bounds the run-metadata map; terminal runs beyond it are
// evicted oldest-first (their result bytes live on in the cache).
const maxRuns = 1024

// maxBodyBytes bounds request bodies; specs are small documents.
const maxBodyBytes = 1 << 20

// maxBatchSpecs bounds one batch submission.
const maxBatchSpecs = 256

// run is one submission's lifecycle record.
type run struct {
	id   string
	spec Spec

	// done closes when the run reaches a terminal state.
	done chan struct{}
	// interrupt closes when cancellation is requested; it propagates
	// into exp.Context.Interrupt so the grid aborts between cells.
	interrupt chan struct{}

	mu        sync.Mutex
	state     string
	errMsg    string
	body      []byte
	trace     []byte
	cacheHit  bool
	cancelled bool // cancellation requested
}

// snapshot reads the run's mutable state consistently.
func (r *run) snapshot() (state, errMsg string, body, trace []byte, cacheHit bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state, r.errMsg, r.body, r.trace, r.cacheHit
}

// Server executes experiment specs over HTTP with caching, bounded
// concurrency and graceful drain. Build with New, mount Handler, and
// call Drain before exit.
type Server struct {
	cfg     Config
	version string
	cache   *Cache
	met     *lockedRegistry
	mux     *http.ServeMux

	mu       sync.Mutex
	runs     map[string]*run
	runOrder []string
	draining bool
	queue    chan *run
	wg       sync.WaitGroup

	// executor runs one canonical spec; tests substitute a stub to make
	// backpressure and cancellation deterministic.
	executor func(spec Spec, interrupt <-chan struct{}) (body, trace []byte, err error)
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	version := cfg.Version
	if version == "" {
		version = CodeVersion()
	}
	s := &Server{
		cfg:     cfg,
		version: version,
		cache:   NewCache(cfg.CacheBytes),
		met:     newLockedRegistry(),
		runs:    make(map[string]*run),
		queue:   make(chan *run, cfg.QueueDepth),
	}
	s.executor = func(spec Spec, interrupt <-chan struct{}) ([]byte, []byte, error) {
		return executeSpec(spec, s.version, interrupt)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/batches", s.handleBatch)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metricsz", s.handleMetricsz)
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP handler tree (mount at "/").
func (s *Server) Handler() http.Handler { return s.mux }

// Version returns the code version baked into this server's cache keys.
func (s *Server) Version() string { return s.version }

// Drain stops admitting new runs (503), lets queued and running ones
// finish, and returns when the worker pool has exited. Safe to call
// more than once.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// logf writes an operational progress line.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// worker executes queued runs until the queue closes on drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for r := range s.queue {
		s.execute(r)
	}
}

// execute drives one run to a terminal state and publishes its result.
func (s *Server) execute(r *run) {
	r.mu.Lock()
	if r.cancelled {
		r.state = StateCancelled
		r.errMsg = "cancelled before execution started"
		r.mu.Unlock()
		s.met.inc("serve.runs.cancelled")
		close(r.done)
		return
	}
	r.state = StateRunning
	r.mu.Unlock()

	sw := clock.Start()
	body, trace, err := s.executor(r.spec, r.interrupt)
	s.met.observeMs("serve.exec_ms", sw.Elapsed().Seconds()*1e3)

	r.mu.Lock()
	switch {
	case err != nil && errors.Is(err, exp.ErrInterrupted):
		r.state = StateCancelled
		r.errMsg = err.Error()
		s.met.inc("serve.runs.cancelled")
	case err != nil:
		r.state = StateFailed
		r.errMsg = err.Error()
		s.met.inc("serve.runs.failed")
	default:
		r.state = StateDone
		r.body = body
		r.trace = trace
		s.cache.Put(r.id, Entry{Body: body, Trace: trace})
		s.met.inc("serve.runs.executed")
	}
	state, errMsg := r.state, r.errMsg
	r.mu.Unlock()
	close(r.done)
	if errMsg != "" {
		s.logf("lbosd: run %s %s: %s (%s)", r.id[:12], state, errMsg, r.spec.Experiment)
	} else {
		s.logf("lbosd: run %s %s (%s, %d bytes)", r.id[:12], state, r.spec.Experiment, len(body))
	}
}

// submit admits one canonical spec. The verdict is CacheHit (result
// served without execution), CacheJoin (attached to an identical
// in-flight run) or CacheMiss (fresh execution enqueued); errors are
// errShed (queue full) or errDraining.
var (
	errShed     = errors.New("serve: queue full")
	errDraining = errors.New("serve: draining, not admitting runs")
)

func (s *Server) submit(spec Spec) (*run, string, error) {
	id := spec.Key(s.version)
	s.mu.Lock()
	defer s.mu.Unlock()

	if r, ok := s.runs[id]; ok {
		st, _, _, _, _ := r.snapshot()
		switch st {
		case StateDone:
			s.met.inc("serve.cache.hit")
			return r, CacheHit, nil
		case StateQueued, StateRunning:
			s.met.inc("serve.cache.join")
			return r, CacheJoin, nil
			// Failed and cancelled runs fall through: resubmission
			// replaces them with a fresh attempt.
		}
	}

	if e, ok := s.cache.Get(id); ok {
		// Result bytes survive run-metadata eviction; resurrect a
		// terminal run record around them.
		r := &run{
			id: id, spec: spec, state: StateDone, cacheHit: true,
			body: e.Body, trace: e.Trace,
			done: make(chan struct{}), interrupt: make(chan struct{}),
		}
		close(r.done)
		s.insertRunLocked(id, r)
		s.met.inc("serve.cache.hit")
		return r, CacheHit, nil
	}

	if s.draining {
		return nil, "", errDraining
	}
	r := &run{
		id: id, spec: spec, state: StateQueued,
		done: make(chan struct{}), interrupt: make(chan struct{}),
	}
	select {
	case s.queue <- r:
	default:
		s.met.inc("serve.queue.shed")
		return nil, "", errShed
	}
	s.insertRunLocked(id, r)
	s.met.inc("serve.cache.miss")
	return r, CacheMiss, nil
}

// insertRunLocked records a run and evicts the oldest terminal run
// records beyond maxRuns. Callers hold s.mu.
func (s *Server) insertRunLocked(id string, r *run) {
	s.runs[id] = r
	s.runOrder = append(s.runOrder, id)
	// Compact on map growth, and also when resubmissions have let the
	// order log accumulate duplicate IDs for replaced runs.
	if len(s.runs) <= maxRuns && len(s.runOrder) <= 2*maxRuns {
		return
	}
	kept := s.runOrder[:0]
	for _, old := range s.runOrder {
		rr, ok := s.runs[old]
		if !ok || rr == r {
			continue
		}
		st, _, _, _, _ := rr.snapshot()
		if len(s.runs) > maxRuns && (st == StateDone || st == StateFailed || st == StateCancelled) {
			delete(s.runs, old)
			continue
		}
		kept = append(kept, old)
	}
	s.runOrder = append(kept, id)
}

// lookup finds a run by ID, falling back to a cache-only record for
// results whose metadata was evicted.
func (s *Server) lookup(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.runs[id]; ok {
		return r, true
	}
	if e, ok := s.cache.Get(id); ok {
		r := &run{
			id: id, state: StateDone, cacheHit: true,
			body: e.Body, trace: e.Trace,
			done: make(chan struct{}), interrupt: make(chan struct{}),
		}
		close(r.done)
		return r, true
	}
	return nil, false
}

// StatusDoc is the JSON shape of a run's state.
type StatusDoc struct {
	ID string `json:"id"`
	// State is queued, running, done, failed or cancelled.
	State string `json:"state"`
	// Cache is the submission verdict: hit, miss or join.
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
	// Result and Trace are fetch paths, present once the run is done.
	Result string `json:"result,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

// statusDoc renders a run's current state.
func (s *Server) statusDoc(r *run, verdict string) StatusDoc {
	st, errMsg, _, trace, _ := r.snapshot()
	doc := StatusDoc{ID: r.id, State: st, Cache: verdict, Error: errMsg}
	if st == StateDone {
		doc.Result = "/v1/runs/" + r.id + "/result"
		if len(trace) > 0 {
			doc.Trace = "/v1/runs/" + r.id + "/trace"
		}
	}
	return doc
}

// errorDoc is the JSON error body.
type errorDoc struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// readSpec decodes and canonicalizes the request body's spec.
func (s *Server) readSpec(w http.ResponseWriter, req *http.Request) (Spec, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return Spec{}, false
	}
	spec, err := ParseSpec(data)
	if err == nil {
		spec, err = spec.Canonicalize()
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return Spec{}, false
	}
	return spec, true
}

// handleSubmit is POST /v1/runs: admit a spec, optionally (?wait=1)
// blocking until the result is ready and returning it directly.
func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	sw := clock.Start()
	s.met.inc("serve.requests.runs_submit")
	spec, ok := s.readSpec(w, req)
	if !ok {
		return
	}
	r, verdict, err := s.submit(spec)
	switch {
	case errors.Is(err, errShed):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
		s.writeError(w, http.StatusTooManyRequests,
			"queue full (%d queued, %d workers); retry after %ds",
			s.cfg.QueueDepth, s.cfg.Workers, retryAfterSeconds)
		return
	case errors.Is(err, errDraining):
		s.writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}

	if req.URL.Query().Get("wait") == "" {
		code := http.StatusAccepted
		if verdict == CacheHit {
			code = http.StatusOK
		}
		writeJSON(w, code, s.statusDoc(r, verdict))
		return
	}

	<-r.done
	s.met.observeMs("serve.request_ms", sw.Elapsed().Seconds()*1e3)
	st, errMsg, body, _, _ := r.snapshot()
	switch st {
	case StateDone:
		w.Header().Set("X-Lbos-Cache", verdict)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case StateCancelled:
		s.writeError(w, http.StatusConflict, "run cancelled: %s", errMsg)
	default:
		s.writeError(w, http.StatusInternalServerError, "run failed: %s", errMsg)
	}
}

// batchRequest and batchItem are the POST /v1/batches shapes.
type batchRequest struct {
	Specs []json.RawMessage `json:"specs"`
}

type batchItem struct {
	Index int    `json:"index"`
	ID    string `json:"id,omitempty"`
	State string `json:"state"`
	Cache string `json:"cache,omitempty"`
	Error string `json:"error,omitempty"`
}

type batchResponse struct {
	Items []batchItem `json:"items"`
}

// handleBatch is POST /v1/batches: admit many specs in one request.
// Admission is per-item — a full queue rejects the remaining items
// individually instead of failing the whole batch.
func (s *Server) handleBatch(w http.ResponseWriter, req *http.Request) {
	s.met.inc("serve.requests.batches")
	data, err := io.ReadAll(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	var br batchRequest
	if err := decodeStrict(data, &br); err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid batch: %v", err)
		return
	}
	if len(br.Specs) == 0 {
		s.writeError(w, http.StatusBadRequest, "batch has no specs")
		return
	}
	if len(br.Specs) > maxBatchSpecs {
		s.writeError(w, http.StatusBadRequest, "batch of %d specs exceeds the %d limit", len(br.Specs), maxBatchSpecs)
		return
	}
	resp := batchResponse{Items: make([]batchItem, 0, len(br.Specs))}
	for i, raw := range br.Specs {
		item := batchItem{Index: i}
		spec, err := ParseSpec(raw)
		if err == nil {
			spec, err = spec.Canonicalize()
		}
		if err != nil {
			item.State = "invalid"
			item.Error = err.Error()
			resp.Items = append(resp.Items, item)
			continue
		}
		r, verdict, err := s.submit(spec)
		if err != nil {
			item.State = "rejected"
			item.Error = err.Error()
			resp.Items = append(resp.Items, item)
			continue
		}
		st, _, _, _, _ := r.snapshot()
		item.ID = r.id
		item.State = st
		item.Cache = verdict
		resp.Items = append(resp.Items, item)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStatus is GET /v1/runs/{id}.
func (s *Server) handleStatus(w http.ResponseWriter, req *http.Request) {
	s.met.inc("serve.requests.status")
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown run %q", req.PathValue("id"))
		return
	}
	_, _, _, _, hit := r.snapshot()
	verdict := ""
	if hit {
		verdict = CacheHit
	}
	writeJSON(w, http.StatusOK, s.statusDoc(r, verdict))
}

// handleCancel is DELETE /v1/runs/{id}: request cancellation. Queued
// runs cancel before starting; running ones abort between grid cells
// (exp.Context.Interrupt). Terminal runs are unaffected, including
// those whose record aged out and that status now answers from the
// cache.
func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	s.met.inc("serve.requests.cancel")
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown run %q", req.PathValue("id"))
		return
	}
	r.mu.Lock()
	terminal := r.state == StateDone || r.state == StateFailed || r.state == StateCancelled
	if !terminal && !r.cancelled {
		r.cancelled = true
		close(r.interrupt)
	}
	r.mu.Unlock()
	if terminal {
		writeJSON(w, http.StatusConflict, s.statusDoc(r, ""))
		return
	}
	writeJSON(w, http.StatusAccepted, s.statusDoc(r, ""))
}

// handleResult is GET /v1/runs/{id}/result (?format=json|csv|text).
func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	s.met.inc("serve.requests.result")
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown run %q", req.PathValue("id"))
		return
	}
	st, errMsg, body, _, _ := r.snapshot()
	switch st {
	case StateDone:
	case StateFailed:
		s.writeError(w, http.StatusInternalServerError, "run failed: %s", errMsg)
		return
	case StateCancelled:
		s.writeError(w, http.StatusConflict, "run cancelled: %s", errMsg)
		return
	default:
		s.writeError(w, http.StatusConflict, "run is %s; poll /v1/runs/%s until done", st, r.id)
		return
	}
	switch format := req.URL.Query().Get("format"); format {
	case "", "json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case "csv", "text":
		rendered, err := renderResult(body, format)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, "rendering result: %v", err)
			return
		}
		if format == "csv" {
			w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		} else {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		}
		w.Write(rendered)
	default:
		s.writeError(w, http.StatusBadRequest, "unknown format %q (want json, csv or text)", format)
	}
}

// handleTrace is GET /v1/runs/{id}/trace.
func (s *Server) handleTrace(w http.ResponseWriter, req *http.Request) {
	s.met.inc("serve.requests.trace")
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, "unknown run %q", req.PathValue("id"))
		return
	}
	st, _, _, trace, _ := r.snapshot()
	if st != StateDone {
		s.writeError(w, http.StatusConflict, "run is %s; poll /v1/runs/%s until done", st, r.id)
		return
	}
	if len(trace) == 0 {
		s.writeError(w, http.StatusNotFound, "run %s was submitted without \"trace\": true", r.id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(trace)
}

// ExperimentInfo is one registry entry on GET /v1/experiments.
type ExperimentInfo struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
	Expect   string `json:"expect,omitempty"`
}

// handleExperiments is GET /v1/experiments: the addressable registry.
func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	s.met.inc("serve.requests.experiments")
	var out []ExperimentInfo
	for _, e := range exp.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Expect: e.Expect})
	}
	writeJSON(w, http.StatusOK, out)
}

// healthDoc is the GET /v1/healthz shape.
type healthDoc struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Workers  int    `json:"workers"`
	QueueLen int    `json:"queue_len"`
	QueueCap int    `json:"queue_cap"`
	Runs     int    `json:"runs"`
}

// handleHealthz is GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	doc := healthDoc{
		Status:   "ok",
		Version:  s.version,
		Workers:  s.cfg.Workers,
		QueueLen: len(s.queue),
		QueueCap: s.cfg.QueueDepth,
		Runs:     len(s.runs),
	}
	if s.draining {
		doc.Status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, doc)
}

// handleMetricsz is GET /v1/metricsz: the operational counters and
// latency histograms, plus cache statistics.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evicted, entries, bytes := s.cache.Stats()
	snap := s.met.snapshot()
	writeJSON(w, http.StatusOK, struct {
		Cache struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Evicted int64 `json:"evicted"`
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
		} `json:"cache"`
		Metrics metrics.Snapshot `json:"metrics"`
	}{
		Cache: struct {
			Hits    int64 `json:"hits"`
			Misses  int64 `json:"misses"`
			Evicted int64 `json:"evicted"`
			Entries int   `json:"entries"`
			Bytes   int64 `json:"bytes"`
		}{hits, misses, evicted, entries, bytes},
		Metrics: snap,
	})
}

// lockedRegistry guards an internal/metrics Registry for concurrent
// handler and worker goroutines. The registry itself is single-owner by
// design (simulation cells); the serving shell adds the lock.
type lockedRegistry struct {
	mu  sync.Mutex
	reg *metrics.Registry
}

func newLockedRegistry() *lockedRegistry {
	return &lockedRegistry{reg: metrics.NewRegistry()}
}

func (l *lockedRegistry) inc(name string) {
	l.mu.Lock()
	l.reg.Counter(name).Inc()
	l.mu.Unlock()
}

// latencyBuckets covers 0.1 ms .. ~1.6 min in geometric steps.
var latencyBuckets = metrics.ExpBuckets(0.1, 2, 20)

func (l *lockedRegistry) observeMs(name string, ms float64) {
	l.mu.Lock()
	l.reg.Histogram(name, latencyBuckets).Observe(ms)
	l.mu.Unlock()
}

func (l *lockedRegistry) snapshot() metrics.Snapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.reg.Snapshot()
}

// renderResult re-renders a cached JSON result document as CSV or text
// tables. Both renderings are pure functions of the document bytes, so
// they inherit its determinism.
func renderResult(body []byte, format string) ([]byte, error) {
	var doc ResultDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	for i, td := range doc.Tables {
		if i > 0 {
			out.WriteByte('\n')
		}
		t := &exp.Table{Title: td.Title, Columns: td.Columns, Rows: td.Rows, Notes: td.Notes}
		if format == "csv" {
			fmt.Fprintf(&out, "# table: %s\n", strings.ReplaceAll(td.Title, "\n", " "))
			t.CSV(&out)
		} else {
			t.Render(&out)
		}
	}
	return out.Bytes(), nil
}
