package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cfs"
	"repro/internal/clock"
	"repro/internal/cpuset"
	"repro/internal/exp"
	"repro/internal/linuxlb"
	"repro/internal/metrics"
	"repro/internal/openload"
	"repro/internal/sim"
	"repro/internal/spmd"
	"repro/internal/topo"
	"repro/internal/xrand"
)

// closedExperiments are the registered figures the closed workload
// regenerates, one serial pass each per round.
var closedExperiments = []string{"fig2", "fig3t", "noise-omps"}

// runClosed runs rounds of serial experiment passes until the timed
// region has lasted cfg.dur. An op is one round, a pass of each
// experiment, so every op does the same work. Set-up is a warm-up pass
// of the first experiment.
func runClosed(cfg runConfig, p *probe) (*phase, error) {
	ph := newPhase("one round of serial Experiment.Run passes of " + strings.Join(closedExperiments, ", ") + " (scale 1, reps 1)")
	scale := 1
	if cfg.small {
		scale = 64
	}
	var exps []*exp.Experiment
	for _, id := range closedExperiments {
		e, err := exp.ByID(id)
		if err != nil {
			return nil, err
		}
		exps = append(exps, e)
	}
	seed := xrand.New(cfg.seed).Uint64()
	for i := 0; i < cfg.setupReps; i++ {
		sw := clock.Start()
		exps[0].Run(&exp.Context{Reps: 1, Scale: scale, Seed: seed, Parallelism: 1})
		ph.setupS = append(ph.setupS, sw.Elapsed().Seconds())
	}

	first := map[string][sha256.Size]byte{}
	var runMs, renderUs []float64
	var roundEvents int64
	totals := map[string]int64{}
	if err := p.start(); err != nil {
		return nil, err
	}
	for p.sw.Elapsed() < cfg.dur || len(ph.opMs) == 0 {
		var roundMs float64
		var digests []byte
		var problems []string
		roundEvents = 0
		for _, e := range exps {
			ctx := &exp.Context{Reps: 1, Scale: scale, Seed: seed, Parallelism: 1, Metrics: metrics.NewAggregate()}
			sw := clock.Start()
			tables := e.Run(ctx)
			ms := stopwatchMs(sw)
			runMs = append(runMs, ms)
			roundMs += ms

			sw = clock.Start()
			var buf bytes.Buffer
			for _, t := range tables {
				t.Render(&buf)
				t.CSV(&buf)
			}
			renderUs = append(renderUs, sw.Elapsed().Seconds()*1e6)

			snap := ctx.Metrics.Snapshot()
			for _, c := range snap.Counters {
				totals[c.Name] += c.Value
			}
			roundEvents += counterOf(snap, "sim.events")
			d := digestOf(buf.Bytes())
			digests = append(digests, d[:]...)
			if problem := checkClosedPass(e.ID, len(tables), snap, d, first); problem != "" {
				problems = append(problems, problem)
			}
		}
		ph.op(roundMs, digestOf(digests), len(problems) == 0, strings.Join(problems, "; "))
	}
	ph.elapsed = p.stop()

	ph.events = totals["sim.events"]
	// A round's events are fixed by the seed, its time is host noise:
	// the median round's rate ignores a slow spell on a shared host.
	ph.rate = float64(roundEvents) / (median(ph.opMs) / 1e3)
	if ph.events > 0 {
		ph.layer["sim.context_switches_per_event"] = float64(totals["sim.context_switches"]) / float64(ph.events)
		ph.layer["sim.wakeups_per_event"] = float64(totals["sim.wakeups"]) / float64(ph.events)
	}
	ph.layer["linuxlb.migrations"] = float64(totals["migrations.linuxlb"])
	ph.layer["speedbal.migrations"] = float64(totals["migrations.speedbal"])
	ph.layer["exp.run_ms"] = median(runMs)
	ph.layer["exp.render_us"] = mean(renderUs)
	return ph, nil
}

// checkClosedPass checks one pass: it rendered tables, simulated events,
// kept every core's busy share within [0, 1] (Σ busy ≤ elapsed ×
// cores), and matches the first pass of the same experiment byte for
// byte. It returns "" when the pass is correct.
func checkClosedPass(id string, tables int, snap metrics.Snapshot, d [sha256.Size]byte, first map[string][sha256.Size]byte) string {
	if tables == 0 {
		return id + ": no tables"
	}
	if counterOf(snap, "sim.events") <= 0 {
		return id + ": no simulated events"
	}
	for _, g := range snap.Gauges {
		if strings.HasSuffix(g.Name, ".busy_frac") && (g.Value < 0 || g.Value > 1+1e-9) {
			return fmt.Sprintf("%s: %s = %v outside [0, 1]", id, g.Name, g.Value)
		}
	}
	if f, ok := first[id]; ok && f != d {
		return id + ": tables differ from the first pass at the same seed"
	}
	first[id] = d
	return ""
}

// chunkRun is a machine advanced in fixed simulated chunks.
type chunkRun struct {
	m      *sim.Machine
	gen    *openload.Gen // nil on fabric
	sched  *schedProbe   // nil when untraced
	placer *timedPlacer  // nil when untraced
}

// chunkSpec describes a chunked workload.
type chunkSpec struct {
	chunk time.Duration
	// episode is how many chunks one machine runs before it is rebuilt;
	// 0 keeps one machine for the whole run. The open machine keeps
	// every task it ever admitted, so without episodes a faster
	// simulator would also hold more memory.
	episode int
	// build makes a machine and runs its warm-up.
	build func(newSched func(int) sim.Scheduler) (*sim.Machine, *openload.Gen)
}

// newRun builds one machine; a traced phase decorates its scheduler and,
// once the warm-up has started the actors that install one, its placer.
func (cs chunkSpec) newRun(traced bool) *chunkRun {
	r := &chunkRun{}
	newSched := cfs.Factory()
	if traced {
		r.sched = &schedProbe{}
		newSched = r.sched.wrap(newSched)
	}
	r.m, r.gen = cs.build(newSched)
	if traced {
		r.placer = &timedPlacer{inner: r.m.GetPlacer()}
		r.m.SetPlacer(r.placer)
	}
	return r
}

// chunkCounts are the layer counters one machine accumulates.
type chunkCounts struct {
	events, switches, wakeups, windows, windowEvents, lbMigrations int64
	calls, timed, ns, places, placeNs                              int64
	admitted, completed                                            int64
}

func (r *chunkRun) counts() chunkCounts {
	m := r.m
	c := chunkCounts{
		events: int64(m.Stats.Events), switches: int64(m.Stats.ContextSwitches),
		wakeups: int64(m.Stats.Wakeups), windows: int64(m.Windows()),
		windowEvents: int64(m.WindowEvents()), lbMigrations: int64(m.Stats.Migrations["linuxlb"]),
	}
	if r.sched != nil {
		c.calls, c.timed, c.ns = r.sched.totals()
	}
	if r.placer != nil {
		c.places, c.placeNs = r.placer.calls, r.placer.ns
	}
	if r.gen != nil {
		c.admitted, c.completed = int64(r.gen.Admitted), int64(r.gen.Completed)
	}
	return c
}

// add accumulates the counters b − a.
func (c *chunkCounts) add(a, b chunkCounts) {
	c.events += b.events - a.events
	c.switches += b.switches - a.switches
	c.wakeups += b.wakeups - a.wakeups
	c.windows += b.windows - a.windows
	c.windowEvents += b.windowEvents - a.windowEvents
	c.lbMigrations += b.lbMigrations - a.lbMigrations
	c.calls += b.calls - a.calls
	c.timed += b.timed - a.timed
	c.ns += b.ns - a.ns
	c.places += b.places - a.places
	c.placeNs += b.placeNs - a.placeNs
	c.admitted += b.admitted - a.admitted
	c.completed += b.completed - a.completed
}

// runChunks times setupReps set-ups, then advances the last machine one
// chunk per op for the timed region, rebuilding it every cs.episode
// chunks. Rebuilds are not timed: the phase's elapsed time excludes
// them. Every episode runs the same inputs, so chunk j of each episode
// must match chunk j of the first.
func runChunks(cfg runConfig, p *probe, ph *phase, cs chunkSpec) error {
	var r *chunkRun
	for i := 0; i < cfg.setupReps; i++ {
		sw := clock.Start()
		r = cs.newRun(p.traced)
		ph.setupS = append(ph.setupS, sw.Elapsed().Seconds())
	}

	var total chunkCounts
	var rebuild time.Duration
	start := r.counts()
	if err := p.start(); err != nil {
		return err
	}
	for p.sw.Elapsed()-rebuild < cfg.dur || len(ph.opMs) == 0 {
		n := len(ph.opMs)
		if cs.episode > 0 && n > 0 && n%cs.episode == 0 {
			total.add(start, r.counts())
			sw := clock.Start()
			r = cs.newRun(p.traced)
			rebuild += sw.Elapsed()
			start = r.counts()
		}
		sw := clock.Start()
		r.m.RunFor(cs.chunk)
		ms := stopwatchMs(sw)
		d, problem := fingerprint(r.m, r.gen)
		if cs.episode > 0 && n >= cs.episode && d != ph.digests[n%cs.episode] {
			problem = fmt.Sprintf("differs from chunk %d of the first episode", n%cs.episode)
		}
		ph.op(ms, d, problem == "", problem)
	}
	ph.elapsed = p.stop() - rebuild
	total.add(start, r.counts())

	ph.events = total.events
	// The median chunk's time ignores a slow spell on a shared host.
	ph.rate = float64(total.events) / float64(len(ph.opMs)) / (median(ph.opMs) / 1e3)
	ev := float64(total.events)
	ph.layer["sim.windows"] = float64(total.windows)
	ph.layer["linuxlb.migrations"] = float64(total.lbMigrations)
	if ev > 0 {
		ph.layer["sim.context_switches_per_event"] = float64(total.switches) / ev
		ph.layer["sim.wakeups_per_event"] = float64(total.wakeups) / ev
		ph.layer["sim.window_event_frac"] = float64(total.windowEvents) / ev
		ph.layer["cfs.calls_per_event"] = float64(total.calls) / ev
	}
	if total.timed > 0 {
		ph.layer["cfs.ns_per_call"] = float64(total.ns) / float64(total.timed)
	}
	if total.places > 0 {
		ph.layer["linuxlb.place_us"] = float64(total.placeNs) / float64(total.places) / 1e3
	}
	if r.gen != nil {
		ph.layer["openload.admitted"] = float64(total.admitted)
		ph.layer["openload.completed"] = float64(total.completed)
		ph.layer["openload.backlog"] = float64(r.gen.Unfinished())
	}
	return nil
}

// fingerprint digests the machine's observable state after a chunk and
// checks its invariants: Σ busy ≤ elapsed × cores, and admitted ≥
// completed. It returns "" as the problem when they hold.
func fingerprint(m *sim.Machine, g *openload.Gen) ([sha256.Size]byte, string) {
	var b []byte
	put := func(v int64) { b = binary.LittleEndian.AppendUint64(b, uint64(v)) }
	put(m.Now())
	put(int64(m.Stats.Events))
	put(int64(m.Stats.ContextSwitches))
	put(int64(m.Stats.Wakeups))
	labels := make([]string, 0, len(m.Stats.Migrations))
	for l := range m.Stats.Migrations {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		b = append(b, l...)
		put(int64(m.Stats.Migrations[l]))
	}
	put(int64(m.LiveTasks()))
	var busy time.Duration
	for _, c := range m.Cores {
		put(int64(c.BusyTime))
		busy += c.BusyTime
	}
	problem := ""
	if limit := time.Duration(m.Now()) * time.Duration(len(m.Cores)); busy > limit {
		problem = fmt.Sprintf("Σ busy %v exceeds elapsed × cores %v", busy, limit)
	}
	if g != nil {
		put(int64(g.Admitted))
		put(int64(g.Completed))
		if g.Admitted < g.Completed {
			problem = fmt.Sprintf("completed %d jobs but admitted only %d", g.Completed, g.Admitted)
		}
	}
	return sha256.Sum256(b), problem
}

// runOpen drives Tigerton under CFS and the Linux balancer with
// openload arrivals at ρ = 0.8 and the default job classes, all of
// which have MemIntensity 0.
func runOpen(cfg runConfig, p *probe) (*phase, error) {
	cs := chunkSpec{chunk: 2 * time.Second, episode: 50}
	warm := 10 * time.Second
	if cfg.small {
		cs.episode, warm = 2, time.Second
	}
	ph := newPhase(fmt.Sprintf("Machine.RunFor of a %v simulated chunk (a fresh machine every %d chunks)", cs.chunk, cs.episode))
	seed := xrand.New(cfg.seed).Uint64()
	cs.build = func(newSched func(int) sim.Scheduler) (*sim.Machine, *openload.Gen) {
		m := sim.New(topo.Tigerton(), sim.Config{Seed: seed, NewScheduler: newSched})
		m.AddActor(linuxlb.Default())
		g := openload.New(openload.Config{Rho: 0.8})
		m.AddActor(g)
		m.RunFor(warm)
		return m, g
	}
	if err := runChunks(cfg, p, ph, cs); err != nil {
		return nil, err
	}
	return ph, nil
}

// runFabric drives the 1,024-core fabric: one pinned 64-thread UPC-sleep
// app and one Linux balancer per socket, on one event shard per socket
// with lookahead windows. The windows run on a single P: with
// GOMAXPROCS at the CPU count, window throughput on a small shared host
// also depends on whether a neighbour holds the second CPU, so the
// windowed engine is measured for its own cost, not its parallel
// speed-up.
func runFabric(cfg runConfig, p *probe) (*phase, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cs := chunkSpec{chunk: time.Millisecond}
	ph := newPhase(fmt.Sprintf("Machine.RunFor of a %v simulated chunk", cs.chunk))
	seed := xrand.New(cfg.seed).Uint64()
	sockets, perSocket, warm := 16, 64, 20*time.Millisecond
	if cfg.small {
		sockets, perSocket, warm = 4, 16, 5*time.Millisecond
	}
	cs.build = func(newSched func(int) sim.Scheduler) (*sim.Machine, *openload.Gen) {
		tp := topo.Fabric(sockets, perSocket)
		m := sim.New(tp, sim.Config{Seed: seed, NewScheduler: newSched, Shards: sockets, ShardParallel: true})
		sets := make([]cpuset.Set, sockets)
		for _, ci := range tp.Cores {
			sets[ci.Socket] = sets[ci.Socket].Add(ci.ID)
		}
		for s, set := range sets {
			lcfg := linuxlb.DefaultConfig()
			lcfg.Domain = set
			m.AddActor(linuxlb.New(lcfg))
			app := spmd.Build(m, spmd.Spec{
				Name:             fmt.Sprintf("sock%02d", s),
				Threads:          set.Count(),
				Iterations:       1 << 30,
				WorkPerIteration: float64(300 * time.Microsecond),
				WorkJitter:       0.3,
				MemIntensity:     0.4,
				RSSBytes:         1 << 20,
				Model:            spmd.UPCSleep(),
				Affinity:         set,
			})
			app.StartPinned()
		}
		m.RunFor(warm)
		return m, nil
	}
	if err := runChunks(cfg, p, ph, cs); err != nil {
		return nil, err
	}
	return ph, nil
}

// mean returns the arithmetic mean, or 0 for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
