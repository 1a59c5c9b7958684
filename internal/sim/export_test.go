package sim

import (
	"fmt"
	"math"

	"repro/internal/task"
)

// StaleDemandMemos lists every memory domain whose demand memo is valid
// yet differs, bit for bit, from a fresh in-order sum over its cores,
// and every domain whose bandwidth-factor memo, kept beside a valid
// demand memo, differs bit for bit from a fresh 1 − m + m·C/D at the
// fresh sum.
func StaleDemandMemos(m *Machine) []string {
	var stale []string
	for i := range m.memDomains {
		d := &m.memDomains[i]
		if !d.valid {
			continue
		}
		fresh := 0.0
		for _, o := range d.cores {
			if t := o.cur; t != nil && t.Cur.Kind == task.ExecCompute {
				fresh += t.MemIntensity
			}
		}
		if math.Float64bits(fresh) != math.Float64bits(d.demand) {
			stale = append(stale, fmt.Sprintf("memory domain %d: memo %v, fresh sum %v", i, d.demand, fresh))
		}
		if !d.factorValid {
			continue
		}
		mi := d.factorOf
		if f := 1 - mi + mi*d.capacity/fresh; math.Float64bits(f) != math.Float64bits(d.factor) {
			stale = append(stale, fmt.Sprintf("memory domain %d: factor memo %v for intensity %v, fresh factor %v at sum %v",
				i, d.factor, mi, f, fresh))
		}
	}
	return stale
}
