package openload

import (
	"testing"

	"repro/internal/task"
)

// Stepping a job's thread from admission to exit allocates nothing in
// every default class: each class (or parallel job) shares one action
// list, and programs hand back stored Action values.
func TestSteppingAllocatesNothing(t *testing.T) {
	g := New(Config{Rho: 0.8})
	for k := range g.classes {
		c := &g.classes[k]
		const runs = 50
		body := g.jobBody(k)
		progs := make([]task.Program, runs+1)
		for i := range progs {
			progs[i] = program(c, body)
		}
		next := 0
		n := testing.AllocsPerRun(runs, func() {
			p := progs[next]
			next++
			for steps := 0; p.Next(nil, 0).Kind != task.ActExit; steps++ {
				if steps > 1000 {
					t.Fatalf("class %s: program does not exit", c.Name)
				}
			}
		})
		if n != 0 {
			t.Errorf("class %s: %v allocs per job, want 0", c.Name, n)
		}
	}
}
