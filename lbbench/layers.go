package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/sim"
	"repro/internal/task"
)

// timedSched decorates a per-core sim.Scheduler: it counts every call
// and times one call in timeEvery, so the clock reads stay a small share
// of the work measured. Each core gets its own instance, so shard
// workers running in parallel windows share no state.
type timedSched struct {
	inner sim.Scheduler
	calls int64
	timed int64
	ns    int64
}

const timeEvery = 64

// schedProbe wraps a scheduler factory and keeps every instance it made.
type schedProbe struct {
	scheds []*timedSched
}

func (sp *schedProbe) wrap(f func(coreID int) sim.Scheduler) func(coreID int) sim.Scheduler {
	return func(coreID int) sim.Scheduler {
		s := &timedSched{inner: f(coreID)}
		sp.scheds = append(sp.scheds, s)
		return s
	}
}

// totals sums the per-core counters.
func (sp *schedProbe) totals() (calls, timed, ns int64) {
	for _, s := range sp.scheds {
		calls += s.calls
		timed += s.timed
		ns += s.ns
	}
	return
}

func (s *timedSched) begin() (clock.Stopwatch, bool) {
	s.calls++
	if s.calls%timeEvery != 0 {
		return clock.Stopwatch{}, false
	}
	return clock.Start(), true
}

func (s *timedSched) end(sw clock.Stopwatch, on bool) {
	if on {
		s.ns += sw.Elapsed().Nanoseconds()
		s.timed++
	}
}

func (s *timedSched) Attach(m *sim.Machine, coreID int) {
	sw, on := s.begin()
	s.inner.Attach(m, coreID)
	s.end(sw, on)
}

func (s *timedSched) Enqueue(t *task.Task, wakeup bool) bool {
	sw, on := s.begin()
	p := s.inner.Enqueue(t, wakeup)
	s.end(sw, on)
	return p
}

func (s *timedSched) Dequeue(t *task.Task) {
	sw, on := s.begin()
	s.inner.Dequeue(t)
	s.end(sw, on)
}

func (s *timedSched) PickNext() *task.Task {
	sw, on := s.begin()
	t := s.inner.PickNext()
	s.end(sw, on)
	return t
}

func (s *timedSched) PutPrev(t *task.Task) {
	sw, on := s.begin()
	s.inner.PutPrev(t)
	s.end(sw, on)
}

func (s *timedSched) AccountExec(t *task.Task, d time.Duration) {
	sw, on := s.begin()
	s.inner.AccountExec(t, d)
	s.end(sw, on)
}

func (s *timedSched) Slice(t *task.Task) time.Duration {
	sw, on := s.begin()
	d := s.inner.Slice(t)
	s.end(sw, on)
	return d
}

func (s *timedSched) Yield(t *task.Task) {
	sw, on := s.begin()
	s.inner.Yield(t)
	s.end(sw, on)
}

func (s *timedSched) NrRunnable() int {
	sw, on := s.begin()
	n := s.inner.NrRunnable()
	s.end(sw, on)
	return n
}

func (s *timedSched) WeightedLoad() int64 {
	sw, on := s.begin()
	n := s.inner.WeightedLoad()
	s.end(sw, on)
	return n
}

func (s *timedSched) Queued() []*task.Task {
	sw, on := s.begin()
	q := s.inner.Queued()
	s.end(sw, on)
	return q
}

// EachQueued's time includes the caller's visit function.
func (s *timedSched) EachQueued(fn func(t *task.Task) bool) {
	sw, on := s.begin()
	s.inner.EachQueued(fn)
	s.end(sw, on)
}

// timedPlacer decorates the machine's fork placer. Placement runs only
// from global events, never inside a parallel window.
type timedPlacer struct {
	inner sim.Placer
	calls int64
	ns    int64
}

func (p *timedPlacer) Place(m *sim.Machine, t *task.Task) int {
	sw := clock.Start()
	c := p.inner.Place(m, t)
	p.ns += sw.Elapsed().Nanoseconds()
	p.calls++
	return c
}

// moduleShare is one module's share of CPU-profile samples by leaf
// frame.
type moduleShare struct {
	Module  string  `json:"module"`
	Samples int64   `json:"samples"`
	Frac    float64 `json:"frac"`
}

// contentionFuncs are the simulator's shared-resource contention model.
// Their share is cumulative: a sample counts when any frame of its
// stack is one of them.
var contentionFuncs = []string{
	"repro/internal/sim.(*Core).effSpeed",
	"repro/internal/sim.(*Machine).settleShared",
	"repro/internal/sim.(*Machine).rearmShared",
	"repro/internal/sim.(*Machine).sharedWith",
}

// contentionModule names the cumulative contention share in the
// attribution table; simCoreModule is internal/sim's leaf share outside
// those stacks.
const (
	contentionModule = "sim.contention"
	simCoreModule    = "sim.core"
)

// moduleOf maps a profile function name to the module it is attributed
// to: repro/internal/<m> is m, this benchmark is lbbench, the Go runtime
// (including its internal packages and assembly stubs) is runtime, net/http and
// encoding/json get their own rows, and any other package is named by
// its import path.
func moduleOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may contain paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return "runtime" // assembly stubs such as gcWriteBarrier carry no package
	}
	pkg := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		m := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.IndexByte(m, '/'); i >= 0 {
			m = m[:i]
		}
		return m
	case pkg == "main" || strings.HasPrefix(pkg, "repro/lbbench"):
		return "lbbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	}
	return pkg
}

// attribute decodes a CPU profile and returns each module's share of
// samples by leaf frame, plus the cumulative contention share, sorted by
// share.
func attribute(profile []byte) ([]moduleShare, error) {
	stacks, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	isContention := map[string]bool{}
	for _, f := range contentionFuncs {
		isContention[f] = true
	}
	counts := map[string]int64{}
	var total int64
	for _, st := range stacks {
		if len(st.frames) == 0 {
			continue
		}
		total += st.count
		contended := false
		for _, f := range st.frames {
			if isContention[f] {
				contended = true
				break
			}
		}
		mod := moduleOf(st.frames[0])
		if contended {
			counts[contentionModule] += st.count
		}
		if mod == "sim" && !contended {
			counts[simCoreModule] += st.count
		}
		counts[mod] += st.count
	}
	out := make([]moduleShare, 0, len(counts))
	for m, c := range counts {
		s := moduleShare{Module: m, Samples: c}
		if total > 0 {
			s.Frac = float64(c) / float64(total)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Module < out[j].Module
	})
	return out, nil
}

// shareOf returns a module's fraction from an attribution table.
func shareOf(shares []moduleShare, module string) float64 {
	for _, s := range shares {
		if s.Module == module {
			return s.Frac
		}
	}
	return 0
}

// perLayerMetrics combines the untraced phase (runtime counters and the
// reference throughput) with the traced phase (spans, counters and the
// profile).
func perLayerMetrics(plain *phase, rt *probe, tr *phase, shares []moduleShare) map[string]float64 {
	m := map[string]float64{}
	for k, v := range tr.layer {
		m[k] = v
	}
	for _, mod := range []string{"eventq", "cfs", "dwrr", "ule", "linuxlb", "speedbal", "predict",
		"spmd", "task", "openload", "perturb", "serve", "net_http", "encoding_json", "runtime", "lbbench"} {
		m[mod+".cpu_frac"] = shareOf(shares, mod)
	}
	m["sim.events"] = float64(tr.events)
	m["sim.contention.cpu_frac"] = shareOf(shares, contentionModule)
	m["sim.core.cpu_frac"] = shareOf(shares, simCoreModule)
	if tr.events > 0 {
		// The profile's sampled CPU time spent in eventq, per event.
		for _, s := range shares {
			if s.Module == "eventq" {
				m["eventq.ns_per_event"] = float64(s.Samples) * float64(time.Second/profileHz) / float64(tr.events)
			}
		}
	}

	// Runtime counters come from the untraced phase, whose only
	// observer is the runtime/metrics read at each end.
	if plain.events > 0 {
		m["runtime.allocs_per_event"] = float64(rt.after.allocs-rt.before.allocs) / float64(plain.events)
		m["runtime.alloc_bytes_per_event"] = float64(rt.after.allocBytes-rt.before.allocBytes) / float64(plain.events)
	}
	if d := rt.after.totalCPU - rt.before.totalCPU; d > 0 {
		m["runtime.gc_cpu_frac"] = (rt.after.gcCPU - rt.before.gcCPU) / d
	}
	m["runtime.gc_cycles"] = float64(rt.after.gcCycles - rt.before.gcCycles)

	if ref := plain.eventsPerSec(); ref > 0 {
		m["bench.trace_overhead_frac"] = (ref - tr.eventsPerSec()) / ref
	}
	return m
}

// profileHz is runtime/pprof's CPU sampling rate.
const profileHz = 100

// writeArtifacts writes the traced phase's CPU profile, the process's
// allocation profile and the attribution table.
func writeArtifacts(dir string, p *probe, shares []moduleShare) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), p.cpu.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "allocs.pprof"))
	if err != nil {
		return err
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# CPU-profile samples by leaf-frame module (%s is cumulative over its stacks)\n", contentionModule)
	fmt.Fprintf(&b, "%-24s %10s %8s\n", "module", "samples", "share")
	for _, s := range shares {
		fmt.Fprintf(&b, "%-24s %10d %7.2f%%\n", s.Module, s.Samples, 100*s.Frac)
	}
	return os.WriteFile(filepath.Join(dir, "attribution.txt"), []byte(b.String()), 0o644)
}
