package sim

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// StaleDemandMemos lists every memory domain whose demand memo is valid
// yet differs, bit for bit, from a fresh in-order sum over its cores.
func StaleDemandMemos(m *Machine) []string {
	var stale []string
	for i := range m.memDomains {
		d := &m.memDomains[i]
		if !d.valid {
			continue
		}
		fresh := 0.0
		for _, id := range d.cores {
			if o := m.Cores[id].cur; o != nil && o.Cur.Kind == task.ExecCompute {
				fresh += o.MemIntensity
			}
		}
		if math.Float64bits(fresh) != math.Float64bits(d.demand) {
			stale = append(stale, fmt.Sprintf("memory domain %d: memo %v, fresh sum %v", i, d.demand, fresh))
		}
	}
	return stale
}
