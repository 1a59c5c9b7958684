package perturb

import (
	"fmt"
	"time"

	"repro/internal/cpuset"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Injector drives a Config's perturbation schedule on one machine. It
// implements sim.Actor; add it with Machine.AddActor before the run
// starts. Every Injector owns RNG streams split off the machine
// generator at Start, so two runs with the same seed and config see the
// same schedule.
type Injector struct {
	cfg Config
	m   *sim.Machine

	// noiseStolen and stormStolen are the per-core stolen-fraction
	// contributions of the two theft families; the fraction installed on
	// a core is their composition 1-(1-noise)(1-storm).
	noiseStolen []float64
	stormStolen []float64

	// noiseBursts and freqSteps count injected noise bursts (IRQ-style
	// and kthread daemons alike) and frequency-walk steps across cores.
	noiseBursts int
	freqSteps   int

	// Storms and Hotplugs count injected events of the machine-global
	// families.
	Storms   int
	Hotplugs int
}

// NoiseBursts returns the number of injected noise bursts across cores
// (IRQ-style and kthread daemons alike).
func (in *Injector) NoiseBursts() int { return in.noiseBursts }

// FreqSteps returns the number of frequency-walk steps across cores.
func (in *Injector) FreqSteps() int { return in.freqSteps }

// New builds an injector for the configuration. An inert configuration
// yields an injector whose Start does nothing.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// Start implements sim.Actor: it installs the initial frequency
// asymmetry and schedules the first event of every enabled family. RNG
// streams are split in a fixed order (noise cores, hotplug, freq cores,
// storm) to keep schedules independent and deterministic.
func (in *Injector) Start(m *sim.Machine) {
	in.m = m
	in.noiseStolen = make([]float64, len(m.Cores))
	in.stormStolen = make([]float64, len(m.Cores))
	if n := &in.cfg.Noise; n.Period > 0 {
		for _, c := range m.Cores {
			if !n.Cores.Empty() && !n.Cores.Has(c.ID()) {
				continue
			}
			if n.Kthread {
				in.spawnKthread(c.ID(), m.RNG())
				continue
			}
			st := &noiseState{in: in, core: c.ID(), rng: m.RNG()}
			st.timer = m.NewTimer(st.fire)
			// Desynchronised first bursts: one uniform draw over the
			// period, so the cores do not pulse in lockstep.
			st.timer.Schedule(m.Now() + st.rng.Jitter(int64(n.Period)) + 1)
		}
	}
	if h := &in.cfg.Hotplug; h.Interval > 0 {
		st := &hotplugState{in: in, rng: m.RNG(), maxOffline: h.MaxOffline}
		if st.maxOffline <= 0 {
			st.maxOffline = 1
		}
		st.timer = m.NewTimer(st.fire)
		st.timer.Schedule(m.Now() + jittered(st.rng, h.Interval, h.Jitter))
	}
	if f := &in.cfg.Freq; f.Interval > 0 {
		for _, c := range m.Cores {
			if !f.Cores.Empty() && !f.Cores.Has(c.ID()) {
				continue
			}
			st := &freqState{in: in, core: c.ID(), rng: m.RNG()}
			// Initial asymmetry: each core starts at a random factor in
			// [Min, Max] — §6.6's asymmetric machine at time zero.
			st.f = f.Min + st.rng.Float64()*(f.Max-f.Min)
			in.setFreq(st.core, st.f)
			st.timer = m.NewTimer(st.fire)
			st.timer.Schedule(m.Now() + jittered(st.rng, f.Interval, f.Jitter))
		}
	}
	if s := &in.cfg.Storm; s.Period > 0 {
		st := &stormState{in: in, rng: m.RNG()}
		// Socket core groups in first-appearance order (no map).
		for _, c := range m.Topo.Cores {
			sock := c.Socket
			for len(st.sockets) <= sock {
				st.sockets = append(st.sockets, nil)
			}
			st.sockets[sock] = append(st.sockets[sock], c.ID)
		}
		st.timer = m.NewTimer(st.fire)
		st.timer.Schedule(m.Now() + jittered(st.rng, s.Period, s.Jitter))
	}
}

// apply installs the composed stolen fraction on a core and returns it.
func (in *Injector) apply(core int) float64 {
	s := 1 - (1-in.noiseStolen[core])*(1-in.stormStolen[core])
	in.m.SetCoreStolen(core, s)
	return s
}

func (in *Injector) setFreq(core int, f float64) {
	in.m.SetCoreFreq(core, f)
	if in.m.Tracing() {
		in.m.Emit(trace.Event{Kind: trace.KindFreqChange, Core: core, SK: f})
	}
}

func (in *Injector) count(name string) {
	if reg := in.m.Metrics(); reg != nil {
		reg.Counter(name).Inc()
	}
}

// spawnKthread starts one core's noise daemon: a pinned nice −20
// "kworker" that sleeps most of the time and wakes to compute for each
// burst. Because it is an ordinary task, its bursts appear on the run
// queue — the form of kernel noise load balancers can see and react to.
// The daemon never exits; runs under kthread noise end via
// Machine.Stop (as the experiment harness does), not by draining.
func (in *Injector) spawnKthread(core int, rng *xrand.RNG) {
	p := &kthreadProgram{in: in, rng: rng}
	t := in.m.NewTask(fmt.Sprintf("kworker/%d", core), p)
	t.Group = "kthread"
	t.Affinity = cpuset.Of(core)
	t.Nice = -20
	t.Sched.Weight = task.NiceWeight(t.Nice)
	in.m.StartOn(t, core)
}

// kthreadProgram alternates jittered sleeps with burst computes; the
// initial sleep desynchronises the per-core daemons.
type kthreadProgram struct {
	in      *Injector
	rng     *xrand.RNG
	started bool
	burst   bool
}

func (p *kthreadProgram) Next(t *task.Task, now int64) task.Action {
	cfg := &p.in.cfg.Noise
	if !p.started {
		p.started = true
		return task.Sleep(time.Duration(p.rng.Jitter(int64(cfg.Period)) + 1))
	}
	if p.burst {
		// Burst done; sleep out the gap.
		p.burst = false
		if p.in.m.Tracing() {
			p.in.m.Emit(trace.Event{Kind: trace.KindNoiseEnd, Core: t.CoreID, Label: "kthread", SK: 0})
		}
		return task.Sleep(time.Duration(jittered(p.rng, cfg.Period, cfg.Jitter)))
	}
	p.burst = true
	work := float64(jittered(p.rng, cfg.Duration, cfg.Jitter)) * cfg.Steal
	p.in.noiseBursts++
	p.in.count("perturb.noise_bursts")
	if p.in.m.Tracing() {
		p.in.m.Emit(trace.Event{Kind: trace.KindNoiseBegin, Core: t.CoreID, Label: "kthread",
			SK: cfg.Steal, Dur: int64(work)})
	}
	return task.Compute(work)
}

// noiseState is one core's kernel-noise burst machine: it alternates
// burst-begin and burst-end firings of a single reusable timer.
type noiseState struct {
	in    *Injector
	core  int
	rng   *xrand.RNG
	timer *sim.Timer
	burst bool
}

func (st *noiseState) fire(now int64) {
	in := st.in
	cfg := &in.cfg.Noise
	if st.burst {
		// Burst ends; next burst after a jittered period.
		st.burst = false
		in.noiseStolen[st.core] = 0
		s := in.apply(st.core)
		if in.m.Tracing() {
			in.m.Emit(trace.Event{Kind: trace.KindNoiseEnd, Core: st.core, Label: "noise", SK: s})
		}
		if in.m.LiveTasks() == 0 {
			return // workload drained: stop injecting so the run can end
		}
		st.timer.Schedule(now + jittered(st.rng, cfg.Period, cfg.Jitter))
		return
	}
	if in.m.LiveTasks() == 0 {
		return
	}
	st.burst = true
	dur := jittered(st.rng, cfg.Duration, cfg.Jitter)
	in.noiseBursts++
	in.count("perturb.noise_bursts")
	in.noiseStolen[st.core] = cfg.Steal
	s := in.apply(st.core)
	if in.m.Tracing() {
		in.m.Emit(trace.Event{Kind: trace.KindNoiseBegin, Core: st.core, Label: "noise", SK: s, Dur: dur})
	}
	st.timer.Schedule(now + dur)
}

// hotplugState drives unplug events; each unplug schedules its own
// replug event.
type hotplugState struct {
	in         *Injector
	rng        *xrand.RNG
	timer      *sim.Timer
	offline    int
	maxOffline int
	// cand is fire's list of unplug candidates, kept across firings.
	cand []int
	// replugFree holds the idle replug events. One is pending per
	// offline core, so at most maxOffline are ever allocated.
	replugFree []*replug
}

// replug is a reusable global event that brings one unplugged core back
// online and then returns to its hotplugState's free list.
type replug struct {
	st    *hotplugState
	core  int
	timer *sim.Timer
}

func (r *replug) fire(int64) {
	st := r.st
	st.replugFree = append(st.replugFree, r)
	st.offline--
	st.in.m.SetCoreOnline(r.core, true)
}

func (st *hotplugState) fire(now int64) {
	in := st.in
	cfg := &in.cfg.Hotplug
	if in.m.LiveTasks() == 0 {
		return
	}
	if st.offline < st.maxOffline && in.m.OnlineCores() > 1 {
		// Candidates in core-ID order keep the pick a pure function of
		// the RNG stream.
		cand := st.cand[:0]
		for _, c := range in.m.Cores {
			if !c.Online() {
				continue
			}
			if !cfg.Cores.Empty() && !cfg.Cores.Has(c.ID()) {
				continue
			}
			cand = append(cand, c.ID())
		}
		st.cand = cand
		if len(cand) > 0 {
			core := cand[st.rng.Intn(len(cand))]
			off := jittered(st.rng, cfg.OffTime, cfg.Jitter)
			st.offline++
			in.Hotplugs++
			in.count("perturb.hotplug")
			in.m.SetCoreOnline(core, false)
			var r *replug
			if n := len(st.replugFree); n > 0 {
				r = st.replugFree[n-1]
				st.replugFree = st.replugFree[:n-1]
			} else {
				r = &replug{st: st}
				r.timer = in.m.NewTimer(r.fire)
			}
			r.core = core
			r.timer.Schedule(now + off)
		}
	}
	st.timer.Schedule(now + jittered(st.rng, cfg.Interval, cfg.Jitter))
}

// freqState is one core's frequency random walk.
type freqState struct {
	in    *Injector
	core  int
	rng   *xrand.RNG
	timer *sim.Timer
	f     float64
}

func (st *freqState) fire(now int64) {
	in := st.in
	cfg := &in.cfg.Freq
	if in.m.LiveTasks() == 0 {
		return
	}
	st.f += cfg.Step * (2*st.rng.Float64() - 1)
	if st.f < cfg.Min {
		st.f = cfg.Min
	}
	if st.f > cfg.Max {
		st.f = cfg.Max
	}
	in.freqSteps++
	in.count("perturb.freq_steps")
	in.setFreq(st.core, st.f)
	st.timer.Schedule(now + jittered(st.rng, cfg.Interval, cfg.Jitter))
}

// stormState drives whole-socket interrupt storms; each storm schedules
// its own end event.
type stormState struct {
	in      *Injector
	rng     *xrand.RNG
	timer   *sim.Timer
	sockets [][]int
	// endFree holds the idle storm-end events. One is pending per
	// storm in progress, so only as many as ever overlap are allocated.
	endFree []*stormEnd
}

// stormEnd is a reusable global event that lifts one storm from its
// socket's cores and then returns to its stormState's free list.
type stormEnd struct {
	st    *stormState
	cores []int
	timer *sim.Timer
}

func (e *stormEnd) fire(int64) {
	st := e.st
	st.endFree = append(st.endFree, e)
	in := st.in
	for _, id := range e.cores {
		in.stormStolen[id] = 0
		s := in.apply(id)
		if in.m.Tracing() {
			in.m.Emit(trace.Event{Kind: trace.KindNoiseEnd, Core: id, Label: "storm", SK: s})
		}
	}
}

func (st *stormState) fire(now int64) {
	in := st.in
	cfg := &in.cfg.Storm
	if in.m.LiveTasks() == 0 {
		return
	}
	cores := st.sockets[st.rng.Intn(len(st.sockets))]
	dur := jittered(st.rng, cfg.Duration, cfg.Jitter)
	in.Storms++
	in.count("perturb.storms")
	for _, id := range cores {
		in.stormStolen[id] = cfg.Steal
		s := in.apply(id)
		if in.m.Tracing() {
			in.m.Emit(trace.Event{Kind: trace.KindNoiseBegin, Core: id, Label: "storm", SK: s, Dur: dur})
		}
	}
	var end *stormEnd
	if n := len(st.endFree); n > 0 {
		end = st.endFree[n-1]
		st.endFree = st.endFree[:n-1]
	} else {
		end = &stormEnd{st: st}
		end.timer = in.m.NewTimer(end.fire)
	}
	end.cores = cores
	end.timer.Schedule(now + dur)
	st.timer.Schedule(now + jittered(st.rng, cfg.Period, cfg.Jitter))
}

// jittered draws mean ± Jitter×mean (uniform), at least 1 ns.
func jittered(rng *xrand.RNG, mean time.Duration, j float64) int64 {
	d := float64(mean)
	if j > 0 {
		d *= 1 + j*(2*rng.Float64()-1)
	}
	if d < 1 {
		return 1
	}
	return int64(d)
}
