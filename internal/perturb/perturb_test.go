package perturb_test

// Tests for the fault-injection layer: flag parsing, schedule
// determinism (the schedule must be a pure function of config and
// machine seed), physical plausibility of each family (noise delays
// work, kthread noise is schedulable, frequency walks stay in bounds),
// and the hotplug safety property that no task is ever lost.

import (
	"strings"
	"testing"
	"time"

	"repro/internal/cfs"
	"repro/internal/cpuset"
	"repro/internal/perturb"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/topo"
	"repro/internal/trace"
)

func TestParse(t *testing.T) {
	cases := []struct {
		spec string
		want func(c perturb.Config) bool
	}{
		{"", func(c perturb.Config) bool { return !c.Active() }},
		{"noise", func(c perturb.Config) bool { return c.Noise.Period > 0 && !c.Noise.Kthread }},
		{"kthread", func(c perturb.Config) bool { return c.Noise.Period > 0 && c.Noise.Kthread }},
		{"hotplug", func(c perturb.Config) bool { return c.Hotplug.Interval > 0 && c.Noise.Period == 0 }},
		{"freq", func(c perturb.Config) bool { return c.Freq.Interval > 0 }},
		{"storm", func(c perturb.Config) bool { return c.Storm.Period > 0 }},
		{"noise,hotplug", func(c perturb.Config) bool { return c.Noise.Period > 0 && c.Hotplug.Interval > 0 }},
		{"all", func(c perturb.Config) bool {
			return c.Noise.Period > 0 && c.Hotplug.Interval > 0 && c.Freq.Interval > 0 && c.Storm.Period > 0
		}},
	}
	for _, tc := range cases {
		c, err := perturb.Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", tc.spec, err)
			continue
		}
		if !tc.want(c) {
			t.Errorf("Parse(%q) = %+v: wrong families enabled", tc.spec, c)
		}
	}
	if _, err := perturb.Parse("noise,bogus"); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("Parse with unknown family: err = %v, want mention of the family", err)
	}
}

func newMachine(seed uint64, cores int, tr trace.Tracer) *sim.Machine {
	return sim.New(topo.SMP(cores), sim.Config{Seed: seed, NewScheduler: cfs.Factory(), Tracer: tr})
}

// computeTasks starts n independent compute tasks of the given work.
func computeTasks(m *sim.Machine, n int, work float64) []*task.Task {
	var tasks []*task.Task
	for i := 0; i < n; i++ {
		tk := m.NewTask("w", &task.Seq{Actions: []task.Action{task.Compute(work)}})
		m.Start(tk)
		tasks = append(tasks, tk)
	}
	return tasks
}

// IRQ-style noise steals wall time: the victim finishes later than its
// work, and its exec time still never exceeds its real time.
func TestNoiseDelaysWork(t *testing.T) {
	m := newMachine(7, 1, nil)
	in := perturb.New(perturb.Config{Noise: perturb.DefaultNoise()})
	m.AddActor(in)
	tk := computeTasks(m, 1, 100e6)[0] // 100 ms of work
	m.Run(int64(10 * time.Second))
	if tk.State != task.Done {
		t.Fatalf("task did not finish under noise")
	}
	if in.NoiseBursts() == 0 {
		t.Fatalf("no noise bursts injected")
	}
	if tk.FinishedAt <= 100e6 {
		t.Errorf("finished at %v despite stolen time; want > 100ms", time.Duration(tk.FinishedAt))
	}
	if int64(tk.ExecTime) > tk.FinishedAt {
		t.Errorf("exec %v exceeds real time %v", tk.ExecTime, time.Duration(tk.FinishedAt))
	}
}

// Kthread noise is schedulable: the daemon appears as a real task on
// the run queue, and the stolen time shows up as daemon exec time.
func TestKthreadNoiseIsSchedulable(t *testing.T) {
	m := newMachine(7, 1, nil)
	log := sim.LogTasks(m)
	cfg := perturb.KthreadNoise()
	in := perturb.New(perturb.Config{Noise: cfg})
	m.AddActor(in)
	app := computeTasks(m, 1, 100e6)[0]
	m.Run(int64(10 * time.Second))
	m.Sync()
	if app.State != task.Done {
		t.Fatalf("app task did not finish under kthread noise")
	}
	var kw *task.Task
	for _, tk := range log.Tasks {
		if tk.Group == "kthread" {
			kw = tk
		}
	}
	if kw == nil {
		t.Fatalf("no kworker task spawned")
	}
	if kw.Affinity != cpuset.Of(0) {
		t.Errorf("kworker affinity %v, want pinned to core 0", kw.Affinity)
	}
	if kw.Sched.Weight != task.NiceWeight(-20) {
		t.Errorf("kworker weight %d, want nice -20 weight %d", kw.Sched.Weight, task.NiceWeight(-20))
	}
	if in.NoiseBursts() == 0 || kw.ExecTime == 0 {
		t.Errorf("kworker never ran: bursts %d, exec %v", in.NoiseBursts(), kw.ExecTime)
	}
	if app.FinishedAt <= 100e6 {
		t.Errorf("app finished at %v despite daemon competition; want > 100ms", time.Duration(app.FinishedAt))
	}
}

// Hotplug never loses tasks: every task finishes even though cores keep
// vanishing mid-run, and all cores are back online at the end.
func TestHotplugLosesNoTask(t *testing.T) {
	m := newMachine(11, 4, nil)
	cfg := perturb.DefaultHotplug()
	cfg.Interval = 20 * time.Millisecond // churn hard
	cfg.OffTime = 10 * time.Millisecond
	cfg.MaxOffline = 3
	in := perturb.New(perturb.Config{Hotplug: cfg})
	m.AddActor(in)
	tasks := computeTasks(m, 8, 50e6)
	m.Run(int64(30 * time.Second))
	m.Sync()
	if in.Hotplugs == 0 {
		t.Fatalf("no hotplug events injected")
	}
	for _, tk := range tasks {
		if tk.State != task.Done {
			t.Errorf("task %q lost: state %v after hotplug churn", tk.Name, tk.State)
		}
	}
}

// freqRecorder collects frequency-change trace events.
type freqRecorder struct{ factors []float64 }

func (r *freqRecorder) Emit(e trace.Event) {
	if e.Kind == trace.KindFreqChange {
		r.factors = append(r.factors, e.SK)
	}
}

// The frequency walk stays inside [Min, Max] at every step, and a
// slowed core still satisfies exec ≤ real.
func TestFreqWalkStaysBounded(t *testing.T) {
	rec := &freqRecorder{}
	m := newMachine(13, 2, rec)
	cfg := perturb.DefaultFreq()
	cfg.Interval = 5 * time.Millisecond
	in := perturb.New(perturb.Config{Freq: cfg})
	m.AddActor(in)
	tasks := computeTasks(m, 2, 100e6)
	m.Run(int64(30 * time.Second))
	m.Sync()
	if in.FreqSteps() == 0 {
		t.Fatalf("no frequency steps injected")
	}
	if len(rec.factors) == 0 {
		t.Fatalf("no freq-change trace events recorded")
	}
	for _, f := range rec.factors {
		if f < cfg.Min-1e-12 || f > cfg.Max+1e-12 {
			t.Errorf("frequency factor %.4f outside [%.2f, %.2f]", f, cfg.Min, cfg.Max)
		}
	}
	for _, tk := range tasks {
		if tk.State != task.Done {
			t.Fatalf("task did not finish under frequency drift")
		}
		if int64(tk.ExecTime) > tk.FinishedAt {
			t.Errorf("exec %v exceeds real time %v on slowed core", tk.ExecTime, time.Duration(tk.FinishedAt))
		}
	}
}

// Storms freeze one socket at a time; work still completes and the
// injector counts the storms.
func TestStormCompletes(t *testing.T) {
	m := sim.New(topo.Tigerton(), sim.Config{Seed: 17, NewScheduler: cfs.Factory()})
	cfg := perturb.DefaultStorm()
	cfg.Period = 20 * time.Millisecond
	in := perturb.New(perturb.Config{Storm: cfg})
	m.AddActor(in)
	tasks := computeTasks(m, 16, 50e6)
	m.Run(int64(30 * time.Second))
	m.Sync()
	if in.Storms == 0 {
		t.Fatalf("no storms injected")
	}
	for _, tk := range tasks {
		if tk.State != task.Done {
			t.Errorf("task %q did not finish under storms", tk.Name)
		}
	}
}

// run executes a fixed workload under the full perturbation mix and
// returns a fingerprint of everything schedule-dependent: event counts,
// per-task finish times and exec times, and the final clock.
func fingerprint(seed uint64) []int64 {
	m := newMachine(seed, 4, nil)
	cfg := perturb.Config{
		Noise:   perturb.DefaultNoise(),
		Hotplug: perturb.HotplugConfig{Interval: 50 * time.Millisecond, OffTime: 20 * time.Millisecond, Jitter: 0.5, MaxOffline: 1},
		Freq:    perturb.DefaultFreq(),
		Storm:   perturb.StormConfig{Period: 80 * time.Millisecond, Duration: 2 * time.Millisecond, Jitter: 0.5, Steal: 1.0},
	}
	in := perturb.New(cfg)
	m.AddActor(in)
	tasks := computeTasks(m, 6, 40e6)
	m.Run(int64(30 * time.Second))
	m.Sync()
	fp := []int64{int64(in.NoiseBursts()), int64(in.Hotplugs), int64(in.FreqSteps()), int64(in.Storms), m.Now()}
	for _, tk := range tasks {
		fp = append(fp, tk.FinishedAt, int64(tk.ExecTime))
	}
	return fp
}

// The full perturbation schedule is a pure function of the machine
// seed: identical seeds reproduce every event count and finish time
// exactly; a different seed produces a different schedule.
func TestScheduleDeterminism(t *testing.T) {
	a, b := fingerprint(42), fingerprint(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at fingerprint[%d]: %d vs %d", i, a[i], b[i])
		}
	}
	c := fingerprint(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical schedules — RNG not wired to the machine seed")
	}
}
