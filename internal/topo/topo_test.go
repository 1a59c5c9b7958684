package topo

import (
	"testing"
	"time"

	"repro/internal/cpuset"
)

func machines() []*Topology {
	return []*Topology{Tigerton(), Barcelona(), Nehalem(), SMP(8),
		Asymmetric([]float64{1, 2, 0.5}), Fabric(16, 64), Fabric(2, 6)}
}

// Every built-in machine passes structural validation.
func TestAllMachinesValidate(t *testing.T) {
	for _, m := range machines() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTigertonShape(t *testing.T) {
	m := Tigerton()
	if m.NumCores() != 16 || m.NUMANodes != 1 {
		t.Fatalf("cores=%d nodes=%d", m.NumCores(), m.NUMANodes)
	}
	// Cores 0 and 1 share an L2; 0 and 2 share only the socket; 0 and 4
	// are on different sockets but the same (single) NUMA node.
	if d := m.Distance(0, 1); d != DistCache {
		t.Errorf("Distance(0,1) = %v, want cache", d)
	}
	if d := m.Distance(0, 2); d != DistSocket {
		t.Errorf("Distance(0,2) = %v, want socket", d)
	}
	if d := m.Distance(0, 4); d != DistSocket {
		t.Errorf("Distance(0,4) = %v, want socket (UMA: never numa)", d)
	}
	if d := m.Distance(3, 3); d != DistSelf {
		t.Errorf("Distance(3,3) = %v, want self", d)
	}
	if _, ok := m.SharedCache(0, 1); !ok {
		t.Error("cores 0,1 share no cache, want shared L2")
	}
	if _, ok := m.SharedCache(0, 2); ok {
		t.Error("cores 0,2 share a cache, want none")
	}
}

func TestFabricShape(t *testing.T) {
	m := Fabric(16, 64)
	if m.NumCores() != 1024 || m.NUMANodes != 16 {
		t.Fatalf("cores=%d nodes=%d", m.NumCores(), m.NUMANodes)
	}
	// Cores 0 and 3 share an L3-slice cluster; 0 and 63 share only the
	// socket; 0 and 64 are on different NUMA nodes.
	if d := m.Distance(0, 3); d != DistCache {
		t.Errorf("Distance(0,3) = %v, want cache", d)
	}
	if d := m.Distance(0, 63); d != DistSocket {
		t.Errorf("Distance(0,63) = %v, want socket", d)
	}
	if _, ok := m.SharedCache(0, 63); !ok {
		t.Error("cores 0,63 share no cache, want socket L3")
	}
	if d := m.Distance(0, 64); d != DistNUMA {
		t.Errorf("Distance(0,64) = %v, want numa", d)
	}
	if got := m.MemDomainOf(1023); got != 15 {
		t.Errorf("MemDomainOf(1023) = %d, want 15", got)
	}
	for _, c := range []int{0, 511, 1023} {
		if s := m.Cores[c].Socket; s != c/64 {
			t.Errorf("core %d on socket %d, want %d", c, s, c/64)
		}
	}
	// A non-multiple-of-four socket width still validates (short last
	// cluster per socket).
	if err := Fabric(3, 5).Validate(); err != nil {
		t.Errorf("Fabric(3,5): %v", err)
	}
}

func TestBarcelonaShape(t *testing.T) {
	m := Barcelona()
	if m.NUMANodes != 4 {
		t.Fatalf("nodes = %d", m.NUMANodes)
	}
	if d := m.Distance(0, 3); d != DistCache {
		t.Errorf("Distance(0,3) = %v, want cache (shared L3)", d)
	}
	if d := m.Distance(0, 4); d != DistNUMA {
		t.Errorf("Distance(0,4) = %v, want numa", d)
	}
	if m.RemoteMemoryPenalty <= 0 {
		t.Error("Barcelona must have a remote-memory penalty")
	}
	// The NODE level must be marked NUMA so speedbalancer blocks it.
	top := m.Levels[len(m.Levels)-1]
	if !top.NUMA {
		t.Error("top level not marked NUMA")
	}
}

func TestNehalemSMT(t *testing.T) {
	m := Nehalem()
	if d := m.Distance(0, 8); d != DistSMT {
		t.Errorf("Distance(0,8) = %v, want smt", d)
	}
	if d := m.Distance(0, 1); d != DistCache {
		t.Errorf("Distance(0,1) = %v, want cache", d)
	}
	if d := m.Distance(0, 4); d != DistNUMA {
		t.Errorf("Distance(0,4) = %v, want numa", d)
	}
	if got := m.Cores[3].SMTSiblings; got != cpuset.Of(3, 11) {
		t.Errorf("siblings of 3 = %v", got)
	}
}

// Migration cost grows with distance and saturates with RSS at the
// destination LLC size.
func TestMigrationCostMonotonic(t *testing.T) {
	m := Tigerton()
	rss := int64(1 << 20)
	same := m.MigrationCost(rss, 0, 0)
	cache := m.MigrationCost(rss, 0, 1)
	socket := m.MigrationCost(rss, 0, 2)
	cross := m.MigrationCost(rss, 0, 4)
	if same != 0 {
		t.Errorf("same-core cost %v, want 0", same)
	}
	if !(cache < socket && socket <= cross) {
		t.Errorf("cost ordering violated: cache=%v socket=%v cross=%v", cache, socket, cross)
	}
	// Saturation: RSS beyond LLC costs the same as LLC-sized RSS.
	big := m.MigrationCost(1<<30, 0, 4)
	llc := m.MigrationCost(4<<20, 0, 4)
	if big != llc {
		t.Errorf("cost not capped at LLC: big=%v llc=%v", big, llc)
	}
	// Within the paper's quoted envelope: µs (fits in cache) to ~2 ms.
	if cache < time.Microsecond || cross > 3*time.Millisecond {
		t.Errorf("costs outside paper envelope: cache=%v cross=%v", cache, cross)
	}
}

func TestMigrationCostNUMA(t *testing.T) {
	m := Barcelona()
	rss := int64(2 << 20)
	intra := m.MigrationCost(rss, 0, 1)
	inter := m.MigrationCost(rss, 0, 4)
	if inter <= intra {
		t.Errorf("NUMA migration (%v) not costlier than intra-socket (%v)", inter, intra)
	}
}

func TestMemDomainOf(t *testing.T) {
	m := Tigerton()
	if d := m.MemDomainOf(0); d != m.MemDomainOf(3) {
		t.Error("cores 0,3 in different mem domains, want same socket FSB")
	}
	if m.MemDomainOf(0) == m.MemDomainOf(4) {
		t.Error("cores 0,4 share a mem domain, want separate FSBs")
	}
	// SMP machines have no bandwidth model: every core reports -1.
	smp := SMP(4)
	if smp.MemDomainOf(0) != -1 {
		t.Error("SMP core has a mem domain, want none (unlimited)")
	}
}

func TestCacheSizeFor(t *testing.T) {
	b := Barcelona()
	if got := b.CacheSizeFor(0); got != 2<<20 {
		t.Errorf("Barcelona LLC = %d, want 2MB L3", got)
	}
	tg := Tigerton()
	if got := tg.CacheSizeFor(0); got != 4<<20 {
		t.Errorf("Tigerton LLC = %d, want 4MB L2", got)
	}
}

func TestAsymmetricSpeeds(t *testing.T) {
	m := Asymmetric([]float64{1, 2, 0.5})
	if m.Cores[1].BaseSpeed != 2 || m.Cores[2].BaseSpeed != 0.5 {
		t.Error("asymmetric speeds not applied")
	}
	if err := m.Validate(); err != nil {
		t.Error(err)
	}
}

func TestValidateCatchesBadTopology(t *testing.T) {
	m := Tigerton()
	m.Cores[3].BaseSpeed = 0
	if err := m.Validate(); err == nil {
		t.Error("zero speed not caught")
	}

	m = Tigerton()
	m.Levels[0].Groups = m.Levels[0].Groups[1:] // drop a group: no cover
	if err := m.Validate(); err == nil {
		t.Error("non-covering level not caught")
	}

	m = Tigerton()
	m.MemDomains[0].Capacity = 0
	if err := m.Validate(); err == nil {
		t.Error("zero mem capacity not caught")
	}

	m = Nehalem()
	m.Cores[3].SMTSiblings = m.Cores[3].SMTSiblings.Add(4)
	if err := m.Validate(); err == nil {
		t.Error("asymmetric SMT sibling sets not caught")
	}
}

func TestGroupOf(t *testing.T) {
	m := Tigerton()
	mc := m.Levels[0]
	if g := mc.GroupOf(5); g != cpuset.Of(4, 5) {
		t.Errorf("MC group of 5 = %v", g)
	}
	if g := mc.GroupOf(63); !g.Empty() {
		t.Errorf("group of absent core = %v", g)
	}
}

func TestDistanceString(t *testing.T) {
	for _, c := range []struct {
		d    Distance
		want string
	}{
		{DistSelf, "self"}, {DistSMT, "smt"}, {DistCache, "cache"},
		{DistSocket, "socket"}, {DistNUMA, "numa"},
	} {
		if c.d.String() != c.want {
			t.Errorf("%d.String() = %q", c.d, c.d.String())
		}
	}
}
