// Package perturb is the deterministic fault- and noise-injection layer:
// it composes OS-level interference onto any simulated run — the
// perturbations of the paper's robustness sections (§6.4–§6.6) that a
// clean simulator otherwise lacks.
//
// Four perturbation families are modelled, each driven by its own
// sub-configuration:
//
//   - Kernel noise (NoiseConfig): per-core bursts that steal a fraction
//     of wall time from whatever is running (interrupt handlers, kernel
//     threads, SMM). The victim's measured speed t_exec/t_real drops —
//     the signal speed balancing reacts to — while its run-queue length
//     is unchanged, so queue-length balancers cannot see it. This is
//     the missing ingredient for the paper's ompS result.
//   - Core hotplug (HotplugConfig): cores are taken offline and brought
//     back, forcing the machine to drain their tasks and the balancers
//     to re-place work (sim.Machine.SetCoreOnline semantics).
//   - Frequency drift (FreqConfig): per-core dynamic frequency factors
//     performing a bounded random walk — §6.6's slow cores, made
//     time-varying. A slowed core retires work more slowly but still
//     accrues exec time at wall rate.
//   - Interrupt storms (StormConfig): whole-socket slices during which
//     every core of one socket is (near-)frozen.
//
// Determinism: an Injector draws all randomness from RNG streams split
// off the machine's seeded generator in a fixed order at Start, so the
// full perturbation schedule is a pure function of (config, machine
// seed). No wall clock, no maps on any emission path; runs under
// perturbation stay bit-identical at any -parallel level.
//
// Invariants preserved under every perturbation: no task is lost
// (unplug drains, wakes redirect), task exec time never exceeds wall
// time, and core busy time never exceeds elapsed×cores — enforced by
// the internal/sim invariant suite running perturbed draws.
package perturb

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cpuset"
)

// NoiseConfig describes recurring per-core kernel-noise bursts. Each
// core in Cores independently starts a burst roughly every Period; a
// burst lasts Duration and steals Steal of the core's wall time.
type NoiseConfig struct {
	// Period is the mean gap between burst starts on one core.
	Period time.Duration
	// Duration is the mean burst length.
	Duration time.Duration
	// Jitter in [0,1] randomises each gap and burst length by
	// ±Jitter×mean (uniform).
	Jitter float64
	// Steal in (0,1] is the fraction of wall time stolen during a burst.
	Steal float64
	// Cores restricts the noise to a core subset; zero means all cores.
	Cores cpuset.Set
	// Kthread switches the burst mechanism: instead of IRQ/SMM-style
	// theft (unschedulable, invisible to run queues), each noisy core
	// gets a pinned high-priority kernel daemon task that wakes for
	// every burst, computes Steal×Duration, and sleeps again. The theft
	// is then *visible* to queue-length balancers — which, as the paper
	// observes (§6.4), react to it by migrating application threads,
	// while a speed balancer's longer horizon filters it out.
	Kthread bool
}

// HotplugConfig describes core hot-unplug/replug events: roughly every
// Interval one online core is unplugged and replugged OffTime later.
type HotplugConfig struct {
	// Interval is the mean gap between unplug events.
	Interval time.Duration
	// OffTime is the mean time a core stays offline.
	OffTime time.Duration
	// Jitter in [0,1] randomises gaps and off-times by ±Jitter×mean.
	Jitter float64
	// MaxOffline caps how many cores may be offline at once (default 1).
	// The machine additionally never allows the last online core to go.
	MaxOffline int
	// Cores restricts unplugging to a core subset; zero means all cores.
	Cores cpuset.Set
}

// FreqConfig describes per-core dynamic frequency asymmetry: each core
// starts at a random factor in [Min,Max] and performs a bounded random
// walk, stepping every Interval.
type FreqConfig struct {
	// Interval is the mean gap between frequency steps on one core.
	Interval time.Duration
	// Min and Max bound the frequency factor (1.0 is nominal speed).
	Min, Max float64
	// Step is the maximum per-step change (uniform in ±Step).
	Step float64
	// Jitter in [0,1] randomises the step gaps by ±Jitter×mean.
	Jitter float64
	// Cores restricts the drift to a core subset; zero means all cores.
	Cores cpuset.Set
}

// StormConfig describes machine-wide interrupt storms: roughly every
// Period one socket is picked and every core on it has Steal of its
// wall time stolen for Duration.
type StormConfig struct {
	// Period is the mean gap between storms.
	Period time.Duration
	// Duration is the mean storm length.
	Duration time.Duration
	// Jitter in [0,1] randomises gaps and lengths by ±Jitter×mean.
	Jitter float64
	// Steal in (0,1] is the stolen fraction during the storm (1 freezes
	// the socket outright).
	Steal float64
}

// Config combines the enabled perturbation families. The zero Config is
// inert. A family is enabled when its period/interval is positive.
type Config struct {
	Noise   NoiseConfig
	Hotplug HotplugConfig
	Freq    FreqConfig
	Storm   StormConfig
}

// Active reports whether any perturbation family is enabled.
func (c Config) Active() bool {
	return c.Noise.Period > 0 || c.Hotplug.Interval > 0 ||
		c.Freq.Interval > 0 || c.Storm.Period > 0
}

// DefaultNoise is the canned kernel-noise profile: 600 µs bursts
// stealing 90% of a core roughly every 6 ms — the magnitude of timer
// ticks, RCU callbacks and kworker activity on a busy Linux node, large
// enough to skew fine-grained barrier rounds (the ompS regime).
func DefaultNoise() NoiseConfig {
	return NoiseConfig{Period: 6 * time.Millisecond, Duration: 600 * time.Microsecond,
		Jitter: 0.8, Steal: 0.9}
}

// IRQNoise is the core-concentrated heavy-noise profile: bursts of
// 4.8 ms every 6 ms stealing 90% — a core saturated by pinned interrupt
// work (softirq storms, housekeeping threads with IRQ affinity),
// averaging ~72% theft on the afflicted cores and nothing elsewhere.
// Unlike DefaultNoise's uniform background hum, this asymmetry persists
// per core, so a speed balancer sampling at 100 ms can see and avoid
// it while a run-queue balancer cannot — the paper's §6.4 regime.
func IRQNoise(cores cpuset.Set) NoiseConfig {
	return NoiseConfig{Period: 6 * time.Millisecond, Duration: 4800 * time.Microsecond,
		Jitter: 0.3, Steal: 0.9, Cores: cores}
}

// KthreadNoise is the schedulable kernel-noise profile: a nice −20
// kworker per core waking roughly every 6 ms to run for 600 µs. Unlike
// DefaultNoise's IRQ-style theft, these bursts sit on run queues, so
// load balancers see (and chase) them.
func KthreadNoise() NoiseConfig {
	return NoiseConfig{Period: 8 * time.Millisecond, Duration: 600 * time.Microsecond,
		Jitter: 0.8, Steal: 1.0, Kthread: true}
}

// DefaultHotplug is the canned hotplug profile: one core out roughly
// every 400 ms, staying off for 150 ms.
func DefaultHotplug() HotplugConfig {
	return HotplugConfig{Interval: 400 * time.Millisecond, OffTime: 150 * time.Millisecond,
		Jitter: 0.5, MaxOffline: 1}
}

// DefaultFreq is the canned frequency-drift profile: factors walking in
// [0.5, 1.0] with 0.1 steps every 50 ms.
func DefaultFreq() FreqConfig {
	return FreqConfig{Interval: 50 * time.Millisecond, Min: 0.5, Max: 1.0,
		Step: 0.1, Jitter: 0.5}
}

// DefaultStorm is the canned interrupt-storm profile: one socket frozen
// for 3 ms roughly every 250 ms.
func DefaultStorm() StormConfig {
	return StormConfig{Period: 250 * time.Millisecond, Duration: 3 * time.Millisecond,
		Jitter: 0.5, Steal: 1.0}
}

// Parse turns a -perturb flag value into a Config: a comma-separated
// list of family names ("noise", "hotplug", "freq", "storm", or "all"),
// each enabling its canned default profile. The empty string yields an
// inert Config.
func Parse(spec string) (Config, error) {
	var c Config
	if spec == "" {
		return c, nil
	}
	for _, name := range strings.Split(spec, ",") {
		switch strings.TrimSpace(name) {
		case "noise":
			c.Noise = DefaultNoise()
		case "kthread":
			c.Noise = KthreadNoise()
		case "hotplug":
			c.Hotplug = DefaultHotplug()
		case "freq":
			c.Freq = DefaultFreq()
		case "storm":
			c.Storm = DefaultStorm()
		case "all":
			c.Noise = DefaultNoise()
			c.Hotplug = DefaultHotplug()
			c.Freq = DefaultFreq()
			c.Storm = DefaultStorm()
		case "":
		default:
			return Config{}, fmt.Errorf("perturb: unknown family %q (want noise, kthread, hotplug, freq, storm or all)", name)
		}
	}
	return c, nil
}
