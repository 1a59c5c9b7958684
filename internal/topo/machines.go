package topo

import (
	"fmt"
	"time"

	"repro/internal/cpuset"
)

// Linux 2.6.28-era balancing parameters, as summarised in the paper's §2:
// idle cores balance every 1–2 timer ticks (10 ms tick on a server) on
// UMA and every 64 ms on NUMA; busy cores every 64–128 ms for SMT,
// 64–256 ms for shared packages, and 256–1024 ms for NUMA. Imbalance
// percentage is 125 for most domains, 110 for SMT. We store a single
// representative interval per (level, busy/idle) drawn from those ranges.
const (
	smtBusyInterval    = 64 * time.Millisecond
	cacheBusyInterval  = 64 * time.Millisecond
	socketBusyInterval = 128 * time.Millisecond
	numaBusyInterval   = 256 * time.Millisecond

	umaIdleInterval  = 10 * time.Millisecond
	numaIdleInterval = 64 * time.Millisecond
)

// Tigerton returns the UMA machine from Table 1: quad-socket quad-core
// Intel Xeon E7310 at 1.6 GHz, 4 MB L2 per core pair, no L3, no NUMA.
// Core numbering: socket s holds cores 4s..4s+3; cores (4s, 4s+1) and
// (4s+2, 4s+3) are the L2 pairs.
func Tigerton() *Topology {
	const nCores = 16
	t := &Topology{
		Name:         "tigerton",
		NUMANodes:    1,
		MemBandwidth: 4.0, // GB/s per-core refill over the FSB
	}
	for c := 0; c < nCores; c++ {
		t.Cores = append(t.Cores, CoreInfo{
			ID:          c,
			BaseSpeed:   1.0,
			Node:        0,
			Socket:      c / 4,
			CacheGroup:  c / 2,
			SMTSiblings: cpuset.Of(c),
		})
	}
	for g := 0; g < nCores/2; g++ {
		t.Caches = append(t.Caches, Cache{
			Name:  "L2",
			Size:  4 << 20,
			Cores: cpuset.Range(2*g, 2*g+2),
		})
	}
	// Each socket's four cores share a front-side bus; the FSB sustains
	// about one fully memory-bound core at full speed — the bottleneck
	// behind the modest 16-core NAS speedups on this machine (Table 2:
	// 4.6–7.2). With capacity C and four threads of memory intensity m
	// per socket, per-core efficiency is 1−m+C/4.
	for s := 0; s < 4; s++ {
		t.MemDomains = append(t.MemDomains, MemDomain{
			Cores:    cpuset.Range(4*s, 4*s+4),
			Capacity: 1.0,
		})
	}
	t.Levels = []DomainLevel{
		{
			Name:         "MC",
			Groups:       pairGroups(nCores),
			BusyInterval: cacheBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
		{
			Name:         "CPU",
			Groups:       quadGroups(nCores),
			BusyInterval: socketBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
		{
			Name:         "SYS",
			Groups:       []cpuset.Set{cpuset.All(nCores)},
			BusyInterval: socketBusyInterval * 2,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
	}
	return t
}

// Barcelona returns the NUMA machine from Table 1: quad-socket quad-core
// AMD Opteron 8350 at 2.0 GHz, 512 KB L2 per core, 2 MB L3 per socket,
// one NUMA node per socket. Core numbering: node/socket s holds cores
// 4s..4s+3.
func Barcelona() *Topology {
	const nCores = 16
	t := &Topology{
		Name:                "barcelona",
		NUMANodes:           4,
		RemoteMemoryPenalty: 0.5, // fully memory-bound remote task runs at 1/1.5 speed
		MemBandwidth:        6.0, // GB/s local refill via on-die controller
	}
	for c := 0; c < nCores; c++ {
		t.Cores = append(t.Cores, CoreInfo{
			ID:          c,
			BaseSpeed:   1.0,
			Node:        c / 4,
			Socket:      c / 4,
			CacheGroup:  c / 4, // shared L3 per socket
			SMTSiblings: cpuset.Of(c),
		})
	}
	for c := 0; c < nCores; c++ {
		t.Caches = append(t.Caches, Cache{
			Name:  "L2",
			Size:  512 << 10,
			Cores: cpuset.Of(c),
		})
	}
	for s := 0; s < 4; s++ {
		t.Caches = append(t.Caches, Cache{
			Name:  "L3",
			Size:  2 << 20,
			Cores: cpuset.Range(4*s, 4*s+4),
		})
	}
	// Each node's on-die memory controller sustains roughly twice what
	// Tigerton's FSB does — Table 2's Barcelona speedups (8.4–12.4) are
	// about double the Tigerton ones.
	for s := 0; s < 4; s++ {
		t.MemDomains = append(t.MemDomains, MemDomain{
			Cores:    cpuset.Range(4*s, 4*s+4),
			Capacity: 2.4,
		})
	}
	t.Levels = []DomainLevel{
		{
			Name:         "MC",
			Groups:       quadGroups(nCores),
			BusyInterval: cacheBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
		{
			Name:         "NODE",
			Groups:       []cpuset.Set{cpuset.All(nCores)},
			BusyInterval: numaBusyInterval,
			IdleInterval: numaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      false,
			NUMA:         true,
		},
	}
	return t
}

// Nehalem returns a 2-socket, 4-core, 2-way SMT machine (the 2x4x(2)
// system mentioned in §6): 16 logical CPUs. Logical CPU numbering follows
// Linux convention: CPU c and c+8 are SMT siblings; socket 0 holds
// physical cores 0-3 (logical 0-3 and 8-11).
func Nehalem() *Topology {
	const nLogical = 16
	t := &Topology{
		Name:                "nehalem",
		NUMANodes:           2,
		RemoteMemoryPenalty: 0.3,
		MemBandwidth:        8.0,
	}
	for c := 0; c < nLogical; c++ {
		phys := c % 8
		t.Cores = append(t.Cores, CoreInfo{
			ID:          c,
			BaseSpeed:   1.0,
			Node:        phys / 4,
			Socket:      phys / 4,
			CacheGroup:  phys / 4, // shared L3 per socket
			SMTSiblings: cpuset.Of(phys, phys+8),
		})
	}
	for s := 0; s < 2; s++ {
		t.Caches = append(t.Caches, Cache{
			Name:  "L3",
			Size:  8 << 20,
			Cores: cpuset.Range(4*s, 4*s+4).Union(cpuset.Range(4*s+8, 4*s+12)),
		})
	}
	// Triple-channel DDR3 per socket: generous bandwidth.
	for s := 0; s < 2; s++ {
		t.MemDomains = append(t.MemDomains, MemDomain{
			Cores:    cpuset.Range(4*s, 4*s+4).Union(cpuset.Range(4*s+8, 4*s+12)),
			Capacity: 3.0,
		})
	}
	var smtGroups []cpuset.Set
	for phys := 0; phys < 8; phys++ {
		smtGroups = append(smtGroups, cpuset.Of(phys, phys+8))
	}
	var socketGroups []cpuset.Set
	for s := 0; s < 2; s++ {
		socketGroups = append(socketGroups, cpuset.Range(4*s, 4*s+4).Union(cpuset.Range(4*s+8, 4*s+12)))
	}
	t.Levels = []DomainLevel{
		{
			Name:         "SMT",
			Groups:       smtGroups,
			BusyInterval: smtBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 110,
			NewIdle:      true,
		},
		{
			Name:         "MC",
			Groups:       socketGroups,
			BusyInterval: cacheBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
		{
			Name:         "NODE",
			Groups:       []cpuset.Set{cpuset.All(nLogical)},
			BusyInterval: numaBusyInterval,
			IdleInterval: numaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      false,
			NUMA:         true,
		},
	}
	return t
}

// SMP returns a flat UMA machine with n identical cores and a single
// system-level scheduling domain — the simplest possible substrate, used
// by unit tests and the analytic-model validation.
func SMP(n int) *Topology {
	return Asymmetric(uniform(n))
}

// Fabric returns a datacenter-scale NUMA machine: sockets packages, each
// a NUMA node of coresPer cores (no SMT), with an 8 MB last-level cache
// and an on-die memory controller per socket. Core numbering is
// contiguous per socket: socket s holds cores [s·coresPer, (s+1)·coresPer).
// Cores within a socket share the L3 in groups of four (a mesh-slice
// cluster), mirroring the Tigerton pair / Barcelona socket structure at
// larger scale.
//
// Fabric(16, 64) is the 1,024-core reference machine of the sharded
// simulator: sixteen single-node sockets map one-to-one onto event-queue
// shards, so conservative-lookahead windows parallelise perfectly.
func Fabric(sockets, coresPer int) *Topology {
	n := sockets * coresPer
	if sockets <= 0 || coresPer <= 0 || n > cpuset.MaxCPU {
		panic(fmt.Sprintf("topo: invalid fabric %d sockets x %d cores", sockets, coresPer))
	}
	t := &Topology{
		Name:                fmt.Sprintf("fabric%dx%d", sockets, coresPer),
		NUMANodes:           sockets,
		RemoteMemoryPenalty: 0.5,
		MemBandwidth:        12.0,
	}
	// L3-slice clusters of four cores; a short final cluster absorbs a
	// coresPer that is not a multiple of four.
	cluster := 4
	if coresPer < cluster {
		cluster = coresPer
	}
	for c := 0; c < n; c++ {
		t.Cores = append(t.Cores, CoreInfo{
			ID:          c,
			BaseSpeed:   1.0,
			Node:        c / coresPer,
			Socket:      c / coresPer,
			CacheGroup:  c / cluster,
			SMTSiblings: cpuset.Of(c),
		})
	}
	var clusterGroups []cpuset.Set
	for s := 0; s < sockets; s++ {
		lo, hi := s*coresPer, (s+1)*coresPer
		t.Caches = append(t.Caches, Cache{
			Name:  "L3",
			Size:  8 << 20,
			Cores: cpuset.Range(lo, hi),
		})
		// Modern per-socket controllers sustain several fully
		// memory-bound cores at once.
		t.MemDomains = append(t.MemDomains, MemDomain{
			Cores:    cpuset.Range(lo, hi),
			Capacity: 8.0,
		})
		for g := lo; g < hi; g += cluster {
			end := g + cluster
			if end > hi {
				end = hi
			}
			clusterGroups = append(clusterGroups, cpuset.Range(g, end))
		}
	}
	var socketGroups []cpuset.Set
	for s := 0; s < sockets; s++ {
		socketGroups = append(socketGroups, cpuset.Range(s*coresPer, (s+1)*coresPer))
	}
	t.Levels = []DomainLevel{
		{
			Name:         "MC",
			Groups:       clusterGroups,
			BusyInterval: cacheBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
		{
			Name:         "CPU",
			Groups:       socketGroups,
			BusyInterval: socketBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
		{
			Name:         "NODE",
			Groups:       []cpuset.Set{cpuset.All(n)},
			BusyInterval: numaBusyInterval,
			IdleInterval: numaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      false,
			NUMA:         true,
		},
	}
	return t
}

// Asymmetric returns a flat UMA machine whose core i runs at speeds[i]
// times the reference clock. This models condition 2 from the paper's
// introduction (e.g. Turbo Boost over-clocking a subset of cores).
func Asymmetric(speeds []float64) *Topology {
	n := len(speeds)
	if n == 0 || n > cpuset.MaxCPU {
		panic(fmt.Sprintf("topo: invalid core count %d", n))
	}
	t := &Topology{
		Name:         fmt.Sprintf("smp%d", n),
		NUMANodes:    1,
		MemBandwidth: 4.0,
	}
	for c := 0; c < n; c++ {
		t.Cores = append(t.Cores, CoreInfo{
			ID:          c,
			BaseSpeed:   speeds[c],
			SMTSiblings: cpuset.Of(c),
		})
	}
	t.Caches = append(t.Caches, Cache{Name: "LLC", Size: 4 << 20, Cores: cpuset.All(n)})
	t.Levels = []DomainLevel{
		{
			Name:         "SYS",
			Groups:       []cpuset.Set{cpuset.All(n)},
			BusyInterval: socketBusyInterval,
			IdleInterval: umaIdleInterval,
			ImbalancePct: 125,
			NewIdle:      true,
		},
	}
	return t
}

// Validate checks structural invariants: every level partitions the core
// set, core attributes are self-consistent, and levels are ordered
// innermost-first (group sizes non-decreasing). It returns the first
// violation found.
func (t *Topology) Validate() error {
	n := len(t.Cores)
	if n == 0 {
		return fmt.Errorf("topology %q has no cores", t.Name)
	}
	all := cpuset.All(n)
	for i, c := range t.Cores {
		if c.ID != i {
			return fmt.Errorf("core %d has ID %d", i, c.ID)
		}
		if c.BaseSpeed <= 0 {
			return fmt.Errorf("core %d has non-positive speed %v", i, c.BaseSpeed)
		}
		if !c.SMTSiblings.Has(i) {
			return fmt.Errorf("core %d not in its own SMT sibling set", i)
		}
		for _, s := range c.SMTSiblings.Cores() {
			if s >= n || t.Cores[s].SMTSiblings != c.SMTSiblings {
				return fmt.Errorf("core %d and its SMT sibling %d list different sibling sets", i, s)
			}
		}
		if c.Node < 0 || c.Node >= t.NUMANodes {
			return fmt.Errorf("core %d on node %d outside [0,%d)", i, c.Node, t.NUMANodes)
		}
	}
	prevSize := 0
	for li, l := range t.Levels {
		var union cpuset.Set
		size := -1
		for _, g := range l.Groups {
			if !union.Intersect(g).Empty() {
				return fmt.Errorf("level %s: overlapping groups", l.Name)
			}
			union = union.Union(g)
			if size == -1 {
				size = g.Count()
			}
		}
		if union != all {
			return fmt.Errorf("level %s: groups cover %v, want %v", l.Name, union, all)
		}
		if size < prevSize {
			return fmt.Errorf("level %d (%s) smaller than inner level", li, l.Name)
		}
		prevSize = size
		if l.ImbalancePct < 100 {
			return fmt.Errorf("level %s: imbalance pct %d < 100", l.Name, l.ImbalancePct)
		}
	}
	if len(t.MemDomains) > 0 {
		var union cpuset.Set
		for i, d := range t.MemDomains {
			if d.Capacity <= 0 {
				return fmt.Errorf("mem domain %d: capacity %v", i, d.Capacity)
			}
			if !union.Intersect(d.Cores).Empty() {
				return fmt.Errorf("mem domain %d overlaps another", i)
			}
			union = union.Union(d.Cores)
		}
		if union != all {
			return fmt.Errorf("mem domains cover %v, want %v", union, all)
		}
	}
	return nil
}

func pairGroups(n int) []cpuset.Set {
	var gs []cpuset.Set
	for i := 0; i < n; i += 2 {
		gs = append(gs, cpuset.Range(i, i+2))
	}
	return gs
}

func quadGroups(n int) []cpuset.Set {
	var gs []cpuset.Set
	for i := 0; i < n; i += 4 {
		gs = append(gs, cpuset.Range(i, i+4))
	}
	return gs
}

func uniform(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1.0
	}
	return s
}
