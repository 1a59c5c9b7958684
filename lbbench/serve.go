package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/clock"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// serveVersion pins the code version in cache keys and result
// documents, so golden digests do not depend on how the binary was
// stamped.
const serveVersion = "lbbench"

// warmKeys is how many specs the set-up runs into the cache; hits and
// renders draw from them.
const warmKeys = 8

// The request mix, in percent: hits, first-seen misses, csv renders,
// text renders, and malformed specs (the rest).
const (
	pctHit  = 60
	pctMiss = 15
	pctCSV  = 10
	pctText = 10
)

type reqKind int

const (
	kindHit reqKind = iota
	kindMiss
	kindCSV
	kindText
	kindBad
)

var kindNames = [...]string{"hit", "miss", "csv", "text", "bad"}

// malformedSpecs are rejected by the codec; 400 is the correct answer.
var malformedSpecs = []string{
	`{"experiment":"fig1","reps":1,"bogus":true}`,
	`{"experiment":"no-such-figure"}`,
	`{"experiment":"fig1","reps":-1}`,
	`{"experiment":"fig1"} {"experiment":"fig2"}`,
	`not json`,
	`{"experiment":"fig1","perturb":"gremlins"}`,
}

// serveReq is one generated request.
type serveReq struct {
	kind reqKind
	body []byte // POST body (hit, miss, bad)
	warm int    // warm key index (hit, csv, text)
}

// serveRes is what one request got back.
type serveRes struct {
	status int
	cache  string
	ms     float64
	digest [sha256.Size]byte
	body   []byte // kept for misses, which the checks decode
	err    error
}

// catalogue holds the experiments specs are drawn from: simulated
// figures that run cold in tens of milliseconds at scale 64.
var catalogue = []string{"fig3t", "fig6", "ompS"}

// specSeed is one spec: a catalogue entry and a non-zero seed (0 would
// mean the default seed).
type specSeed struct {
	experiment string
	seed       uint64
}

func drawSpec(rng *xrand.RNG) specSeed {
	return specSeed{catalogue[rng.Intn(len(catalogue))], rng.Uint64()>>1 | 1}
}

// json writes the spec with metrics on, so the result reports its
// simulated events. Hits reorder the fields, which the codec must
// canonicalize to the same key.
func (s specSeed) json(reordered bool) []byte {
	if reordered {
		return []byte(fmt.Sprintf(`{"seed": %d, "metrics": true, "scale": 64, "reps": 1, "experiment": %q}`, s.seed, s.experiment))
	}
	return []byte(fmt.Sprintf(`{"experiment":%q,"reps":1,"scale":64,"seed":%d,"metrics":true}`, s.experiment, s.seed))
}

// requestAt draws request i of the stream from its own generator, so
// the stream is a function of the seed however clients interleave:
// which kind, which warm key, and a fresh spec for every miss.
func requestAt(streamSeed uint64, i int64, warm []specSeed) serveReq {
	rng := xrand.New(streamSeed ^ uint64(i)*0x9e3779b97f4a7c15)
	x := rng.Intn(100)
	switch {
	case x < pctHit:
		w := rng.Intn(len(warm))
		return serveReq{kind: kindHit, warm: w, body: warm[w].json(true)}
	case x < pctHit+pctMiss:
		return serveReq{kind: kindMiss, body: drawSpec(rng).json(false)}
	case x < pctHit+pctMiss+pctCSV:
		return serveReq{kind: kindCSV, warm: rng.Intn(len(warm))}
	case x < pctHit+pctMiss+pctCSV+pctText:
		return serveReq{kind: kindText, warm: rng.Intn(len(warm))}
	}
	return serveReq{kind: kindBad, body: []byte(malformedSpecs[rng.Intn(len(malformedSpecs))])}
}

// served is one completed request, kept in its client's own slot.
type served struct {
	i   int64
	req serveReq
	res serveRes
}

// warmKey is a spec the set-up ran into the cache.
type warmKey struct {
	id     string
	digest [sha256.Size]byte
}

// lbosd is one in-process server behind a loopback listener.
type lbosd struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
}

func startLbosd(clients int) (*lbosd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &lbosd{
		srv: serve.New(serve.Config{Workers: clients, QueueDepth: 2 * clients,
			CacheBytes: 1 << 40, Version: serveVersion}),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}},
		base:   "http://" + ln.Addr().String(),
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the connections, shuts the listener down and drains the
// worker pool; it returns once every server goroutine has exited.
func (d *lbosd) stop() error {
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(context.Background())
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.srv.Drain()
	return err
}

// do sends one request and reads the whole reply.
func (d *lbosd) do(method, path string, body []byte) serveRes {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return serveRes{err: err}
	}
	sw := clock.Start()
	resp, err := d.client.Do(req)
	if err != nil {
		return serveRes{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := stopwatchMs(sw)
	return serveRes{status: resp.StatusCode, cache: resp.Header.Get("X-Lbos-Cache"), ms: ms,
		digest: digestOf(b), body: b, err: err}
}

// metricsz reads the server's operational counters.
func (d *lbosd) metricsz() (metrics.Snapshot, error) {
	r := d.do("GET", "/v1/metricsz", nil)
	if r.err != nil {
		return metrics.Snapshot{}, r.err
	}
	var doc struct{ Metrics metrics.Snapshot }
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("decoding /v1/metricsz: %w", err)
	}
	return doc.Metrics, nil
}

// runServe boots lbosd, runs the warm specs into its cache, then drives
// it with a closed loop of clients, each sending its next request when
// the reply arrives. There is one client (and one worker) per two CPUs:
// with a simulation running on every CPU, a hit would wait for the Go
// scheduler to preempt one, and its latency would measure that wait.
func runServe(cfg runConfig, p *probe) (*phase, error) {
	ph := newPhase("one HTTP request from a closed-loop client")
	clients := runtime.NumCPU() / 2
	if clients < 1 {
		clients = 1
	}
	rng := xrand.New(cfg.seed)
	warmRNG, streamSeed := rng.Split(), rng.Uint64()
	warmSpecs := make([]specSeed, warmKeys)
	for i := range warmSpecs {
		warmSpecs[i] = drawSpec(warmRNG)
	}

	var d *lbosd
	var warm []warmKey
	for i := 0; i < cfg.setupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		sw := clock.Start()
		var err error
		if d, err = startLbosd(clients); err != nil {
			return nil, err
		}
		warm = warm[:0]
		for _, s := range warmSpecs {
			r := d.do("POST", "/v1/runs?wait=1", s.json(false))
			if r.err != nil || r.status != http.StatusOK {
				d.stop()
				return nil, fmt.Errorf("warming the cache: status %d, %v", r.status, r.err)
			}
			var doc serve.ResultDoc
			if err := json.Unmarshal(r.body, &doc); err != nil {
				d.stop()
				return nil, fmt.Errorf("warming the cache: %w", err)
			}
			warm = append(warm, warmKey{id: doc.ID, digest: r.digest})
		}
		ph.setupS = append(ph.setupS, sw.Elapsed().Seconds())
	}
	defer d.stop()

	before, err := d.metricsz()
	if err != nil {
		return nil, err
	}
	var (
		next  atomic.Int64
		slots = make([][]served, clients)
		wg    sync.WaitGroup
	)
	if err := p.start(); err != nil {
		return nil, err
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for p.sw.Elapsed() < cfg.dur {
				i := next.Add(1) - 1
				r := requestAt(streamSeed, i, warmSpecs)
				var out serveRes
				switch r.kind {
				case kindCSV, kindText:
					out = d.do("GET", "/v1/runs/"+warm[r.warm].id+"/result?format="+kindNames[r.kind], nil)
				default:
					out = d.do("POST", "/v1/runs?wait=1", r.body)
				}
				if r.kind != kindMiss {
					out.body = nil
				}
				slots[c] = append(slots[c], served{i, r, out})
			}
		}(c)
	}
	wg.Wait()
	ph.elapsed = p.stop()
	after, err := d.metricsz()
	if err != nil {
		return nil, err
	}

	// Every claimed index completed, so the merged stream has no gaps.
	reqs := make([]serveReq, next.Load())
	res := make([]serveRes, len(reqs))
	for _, slot := range slots {
		for _, s := range slot {
			reqs[s.i], res[s.i] = s.req, s.res
		}
	}
	checkServe(ph, reqs, res, warm)
	serveLayers(ph, reqs, res, before, after)
	return ph, nil
}

// checkServe records every request as an op and checks its reply: hits
// replay the warm body byte for byte, misses return a well-formed
// document for exactly the spec sent, renders of one key agree, and
// malformed specs get 400. Sheds (429) and server errors fail.
func checkServe(ph *phase, reqs []serveReq, res []serveRes, warm []warmKey) {
	rendered := map[[2]int][sha256.Size]byte{}
	for i, r := range res {
		q := reqs[i]
		problem := ""
		switch {
		case r.err != nil:
			problem = r.err.Error()
		case q.kind == kindBad:
			if r.status != http.StatusBadRequest {
				problem = fmt.Sprintf("malformed spec got status %d, want 400", r.status)
			}
		case r.status != http.StatusOK:
			problem = fmt.Sprintf("%s got status %d", kindNames[q.kind], r.status)
		case q.kind == kindHit:
			if r.cache != serve.CacheHit || r.digest != warm[q.warm].digest {
				problem = fmt.Sprintf("hit on warm key %d: verdict %q, body differs: %v", q.warm, r.cache, r.digest != warm[q.warm].digest)
			}
		case q.kind == kindMiss:
			var events int64
			events, problem = checkMissBody(q.body, r)
			ph.events += events
		default:
			k := [2]int{q.warm, int(q.kind)}
			if f, ok := rendered[k]; ok && f != r.digest {
				problem = fmt.Sprintf("%s render of warm key %d differs from its first render", kindNames[q.kind], q.warm)
			}
			rendered[k] = r.digest
		}
		ph.op(r.ms, r.digest, problem == "", problem)
	}
}

// checkMissBody checks a cold run's document against the spec sent and
// returns its simulated event count.
func checkMissBody(sent []byte, r serveRes) (int64, string) {
	if r.cache != serve.CacheMiss && r.cache != serve.CacheJoin {
		return 0, fmt.Sprintf("first-seen spec got verdict %q", r.cache)
	}
	spec, err := serve.ParseSpec(sent)
	if err == nil {
		spec, err = spec.Canonicalize()
	}
	if err != nil {
		return 0, err.Error()
	}
	var doc serve.ResultDoc
	if err := json.Unmarshal(r.body, &doc); err != nil {
		return 0, "decoding result: " + err.Error()
	}
	// The document is indented, and its embedded spec with it.
	var echoed bytes.Buffer
	if err := json.Compact(&echoed, doc.Spec); err != nil {
		return 0, "result spec: " + err.Error()
	}
	if doc.ID != spec.Key(serveVersion) || doc.Version != serveVersion || !bytes.Equal(echoed.Bytes(), spec.CanonicalJSON()) {
		return 0, "result document is not for the spec sent"
	}
	for _, t := range doc.Tables {
		if t.Title != "metrics: counters" {
			continue
		}
		for _, row := range t.Rows {
			if len(row) == 2 && row[0] == "sim.events" {
				n, err := strconv.ParseInt(row[1], 10, 64)
				if err != nil || n <= 0 {
					return 0, "bad sim.events counter " + row[1]
				}
				return n, ""
			}
		}
	}
	return 0, "result has no sim.events counter"
}

// serveLayers fills the serving layer's metrics: client-side latency by
// verdict, the server's own counters from /v1/metricsz, and the public
// codec, key and cache functions timed over the stream's specs.
func serveLayers(ph *phase, reqs []serveReq, res []serveRes, before, after metrics.Snapshot) {
	byKind := make([][]float64, len(kindNames))
	for i, r := range res {
		byKind[reqs[i].kind] = append(byKind[reqs[i].kind], r.ms)
	}
	ph.layer["serve.hit_ms_p50"] = median(byKind[kindHit])
	ph.layer["serve.miss_ms_p50"] = median(byKind[kindMiss])
	ph.layer["serve.render_us"] = 1e3 * median(append(append([]float64(nil), byKind[kindCSV]...), byKind[kindText]...))

	delta := func(name string) float64 { return float64(counterOf(after, name) - counterOf(before, name)) }
	hit, miss, join := delta("serve.cache.hit"), delta("serve.cache.miss"), delta("serve.cache.join")
	if n := hit + miss + join; n > 0 {
		ph.layer["serve.hit_frac"] = hit / n
		ph.layer["serve.join_frac"] = join / n
	}
	ph.layer["serve.shed"] = delta("serve.queue.shed")
	// /v1/metricsz keeps histograms in ×2 buckets; their sums and counts
	// are exact, so the server-side times are means.
	eb, ea := histOf(before, "serve.exec_ms"), histOf(after, "serve.exec_ms")
	if n := ea.Count - eb.Count; n > 0 {
		exec := (ea.Sum - eb.Sum) / float64(n)
		ph.layer["serve.exec_ms_mean"] = exec
		ph.layer["serve.queue_wait_ms_mean"] = mean(byKind[kindMiss]) - exec
	}

	var bodies [][]byte
	for _, q := range reqs {
		if q.kind == kindHit || q.kind == kindMiss {
			bodies = append(bodies, q.body)
		}
	}
	if len(bodies) == 0 {
		return
	}
	n := float64(len(bodies))
	specs := make([]serve.Spec, len(bodies))
	sw := clock.Start()
	for i, b := range bodies {
		// Every hit and miss body passed the same calls in the server;
		// a rejection there already failed its op.
		s, err := serve.ParseSpec(b)
		if err == nil {
			s, _ = s.Canonicalize()
		}
		specs[i] = s
	}
	ph.layer["serve.decode_us"] = sw.Elapsed().Seconds() * 1e6 / n
	keys := make([]string, len(specs))
	sw = clock.Start()
	for i, s := range specs {
		keys[i] = s.Key(serveVersion)
	}
	ph.layer["serve.key_us"] = sw.Elapsed().Seconds() * 1e6 / n
	cache := serve.NewCache(1 << 40)
	for _, k := range keys {
		cache.Put(k, serve.Entry{Body: []byte(k)})
	}
	sw = clock.Start()
	for _, k := range keys {
		cache.Get(k)
	}
	ph.layer["serve.lookup_us"] = sw.Elapsed().Seconds() * 1e6 / n
}

func counterOf(s metrics.Snapshot, name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

func histOf(s metrics.Snapshot, name string) metrics.HistSnap {
	for _, h := range s.Hists {
		if h.Name == name {
			return h
		}
	}
	return metrics.HistSnap{}
}
