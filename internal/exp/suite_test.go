package exp

import (
	"io"
	"testing"

	"repro/internal/perturb"
)

// fig4 and table3 measure their grid from their own context: an earlier
// run in the same process, with other dials or sinks, must not answer
// for a later one.
func TestSuiteRunsDependOnlyOnTheirContext(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs skipped in short mode")
	}
	fig4, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}
	noise, err := perturb.Parse("noise")
	if err != nil {
		t.Fatal(err)
	}
	clean := func() *Context { return &Context{Reps: 1, Scale: 64, Seed: 7} }
	perturbed := func() *Context { c := clean(); c.Perturb = noise; return c }

	alone := renderAll(fig4.Run(perturbed()))
	afterClean := renderAll(fig4.Run(clean()))
	if afterClean == alone {
		t.Error("a clean fig4 run rendered the tables of an earlier perturbed run")
	}
	if again := renderAll(fig4.Run(perturbed())); again != alone {
		t.Errorf("a perturbed fig4 run after a clean one differs from the same run alone:\n%s\nvs\n%s", again, alone)
	}

	table3, err := ByID("table3")
	if err != nil {
		t.Fatal(err)
	}
	ctx := clean()
	ctx.Trace = NewTraceSink(io.Discard)
	table3.Run(ctx)
	if err := ctx.Trace.Close(); err != nil {
		t.Fatal(err)
	}
	if ctx.Trace.Cells == 0 {
		t.Error("a traced table3 run after fig4 recorded no trace cells")
	}
}
