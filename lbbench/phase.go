package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/clock"
)

// phase is the outcome of one set-up plus timed region.
type phase struct {
	// setupS holds each timed set-up, in seconds.
	setupS []float64
	// elapsed is the host time of the timed region.
	elapsed time.Duration
	// opName says what one op is on this workload.
	opName string
	// opMs is the host time of each op, in op order.
	opMs []float64
	// digests holds each op's output digest, in op order.
	digests [][sha256.Size]byte
	// bad marks ops whose output check failed.
	bad []bool
	// events counts simulated events processed in the timed region.
	events int64
	// rate, when set, is the workload's own robust estimate of simulated
	// events per host second (a median over ops); otherwise the rate is
	// events over elapsed time.
	rate float64
	// layer holds counters and spans the workload measured itself,
	// keyed by per-layer metric name.
	layer    map[string]float64
	problems []string
}

func newPhase(opName string) *phase {
	return &phase{opName: opName, layer: map[string]float64{}}
}

// op records one op's time, output digest and check verdict.
func (ph *phase) op(ms float64, digest [sha256.Size]byte, ok bool, problem string) {
	ph.opMs = append(ph.opMs, ms)
	ph.digests = append(ph.digests, digest)
	ph.bad = append(ph.bad, !ok)
	if !ok {
		ph.problems = append(ph.problems, fmt.Sprintf("op %d: %s", len(ph.opMs)-1, problem))
	}
}

// fail marks an already recorded op as failed.
func (ph *phase) fail(i int, format string, args ...any) {
	if !ph.bad[i] {
		ph.bad[i] = true
		ph.problems = append(ph.problems, fmt.Sprintf("op %d: %s", i, fmt.Sprintf(format, args...)))
	}
}

func (ph *phase) attempted() int { return len(ph.opMs) }

// eventsPerSec is simulated events per host second in the timed region.
func (ph *phase) eventsPerSec() float64 {
	if ph.rate > 0 {
		return ph.rate
	}
	if secs := ph.elapsed.Seconds(); secs > 0 {
		return float64(ph.events) / secs
	}
	return 0
}

func (ph *phase) failed() int {
	n := 0
	for _, b := range ph.bad {
		if b {
			n++
		}
	}
	return n
}

// chain folds the op digests in op order; chain()[k-1] covers ops 1..k.
func (ph *phase) chain() []string {
	out := make([]string, len(ph.digests))
	var prev [sha256.Size]byte
	for i, d := range ph.digests {
		prev = sha256.Sum256(append(prev[:], d[:]...))
		out[i] = hex.EncodeToString(prev[:8])
	}
	return out
}

// chainCheckpoints returns the chain at every power-of-two op count.
func (ph *phase) chainCheckpoints() map[string]string {
	c := ph.chain()
	out := map[string]string{}
	for k := 1; k <= len(c); k *= 2 {
		out[strconv.Itoa(k)] = c[k-1]
	}
	return out
}

// compareDigests fails every op of ph whose output differs from the
// same op of ref: a traced run must not change what the program does.
func (ph *phase) compareDigests(ref *phase) {
	n := len(ph.digests)
	if len(ref.digests) < n {
		n = len(ref.digests)
	}
	for i := 0; i < n; i++ {
		if ph.digests[i] != ref.digests[i] {
			ph.fail(i, "traced output differs from the untraced run")
		}
	}
}

//go:embed golden.json
var goldenJSON []byte

// checkGolden compares a full-size default-seed run's digest chain with
// the recorded one. A mismatch at checkpoint k fails the ops after the
// previous checkpoint, up to k.
func checkGolden(name string, cfg runConfig, ph *phase) {
	if cfg.seed != defaultSeed || cfg.small {
		return
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		ph.problems = append(ph.problems, "golden.json: "+err.Error())
		for i := range ph.bad {
			ph.bad[i] = true
		}
		return
	}
	want := golden[name]
	c := ph.chain()
	prev := 0
	for k := 1; k <= len(c); k *= 2 {
		if g, ok := want[strconv.Itoa(k)]; ok && g != c[k-1] {
			for i := prev; i < k; i++ {
				ph.fail(i, "output digest chain differs from golden.json at op %d", k)
			}
		}
		prev = k
	}
}

// digestOf hashes an op's output bytes.
func digestOf(b []byte) [sha256.Size]byte { return sha256.Sum256(b) }

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile with at least ten samples beyond
// it, labelled. Below 20 samples no percentile above the median has ten
// beyond it, so the maximum is reported instead.
func tail(v []float64) (string, float64) {
	n := len(v)
	if n == 0 {
		return "none", 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n < 20 {
		return "max", s[n-1]
	}
	i := n - 11
	return fmt.Sprintf("p%.2f", 100*float64(i+1)/float64(n)), s[i]
}

// stopwatchMs returns the host milliseconds since sw started.
func stopwatchMs(sw clock.Stopwatch) float64 { return sw.Elapsed().Seconds() * 1e3 }

// probe brackets a timed region: it samples runtime counters and, in a
// traced phase, records a CPU profile.
type probe struct {
	traced bool
	cpu    bytes.Buffer
	before runtimeSample
	after  runtimeSample
	sw     clock.Stopwatch
	// procs is GOMAXPROCS during the timed region.
	procs int
}

// start begins the timed region.
func (p *probe) start() error {
	runtime.GC()
	if p.traced {
		if err := pprof.StartCPUProfile(&p.cpu); err != nil {
			return fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	p.procs = runtime.GOMAXPROCS(0)
	p.before = readRuntime()
	p.sw = clock.Start()
	return nil
}

// stop ends the timed region and returns its length.
func (p *probe) stop() time.Duration {
	d := p.sw.Elapsed()
	p.after = readRuntime()
	if p.traced {
		pprof.StopCPUProfile()
	}
	return d
}

// runtimeSample is a reading of the runtime/metrics the benchmark uses.
type runtimeSample struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, totalCPU              float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocs: u(0), allocBytes: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4)}
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kib := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kib /= 1024 // darwin reports bytes
	}
	return kib / 1024
}

// hostFacts are recorded in every report: shard results mean nothing
// without the core count.
type hostFacts struct {
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	GoVersion    string `json:"go_version"`
	Seed         uint64 `json:"seed"`
	SourceSHA256 string `json:"source_sha256"`
}

func collectHostFacts(seed uint64) hostFacts {
	h := hostFacts{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		GoVersion:    runtime.Version(),
		Seed:         seed,
		SourceSHA256: sourceDigest(),
	}
	return h
}

// sourceDigest is the code revision under test. The benchmark runs in
// checkouts without VCS metadata, so it is a SHA-256 over every go.mod
// and .go file below the working directory (the checkout root), in path
// order, skipping build output.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
