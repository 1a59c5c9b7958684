package task

import (
	"repro/internal/cpuset"
	"testing"
	"time"
)

// The weight table matches the kernel anchors: nice 0 = 1024, and each
// step changes the share by ~25%.
func TestNiceWeightTable(t *testing.T) {
	if w := NiceWeight(0); w != 1024 {
		t.Fatalf("NiceWeight(0) = %d", w)
	}
	if w := NiceWeight(-20); w != 88761 {
		t.Errorf("NiceWeight(-20) = %d", w)
	}
	if w := NiceWeight(19); w != 15 {
		t.Errorf("NiceWeight(19) = %d", w)
	}
	// Monotone decreasing.
	for n := -20; n < 19; n++ {
		if NiceWeight(n) <= NiceWeight(n+1) {
			t.Errorf("weight not decreasing at nice %d", n)
		}
	}
	// ~1.25x ratio per step in the middle of the table.
	for n := -5; n < 5; n++ {
		r := float64(NiceWeight(n)) / float64(NiceWeight(n+1))
		if r < 1.15 || r > 1.35 {
			t.Errorf("weight ratio at nice %d = %.3f, want ≈1.25", n, r)
		}
	}
	// Clamping.
	if NiceWeight(-100) != NiceWeight(-20) || NiceWeight(100) != NiceWeight(19) {
		t.Error("clamping broken")
	}
}

func TestSpeed(t *testing.T) {
	if s := Speed(50*time.Millisecond, 100*time.Millisecond); s != 0.5 {
		t.Errorf("Speed = %v, want 0.5", s)
	}
	if s := Speed(time.Second, 0); s != 0 {
		t.Errorf("Speed with zero wall = %v, want 0", s)
	}
	if s := Speed(0, time.Second); s != 0 {
		t.Errorf("Speed with zero exec = %v, want 0", s)
	}
}

func TestStateString(t *testing.T) {
	for _, c := range []struct {
		st   State
		want string
	}{
		{New, "new"}, {Runnable, "runnable"}, {Running, "running"},
		{Sleeping, "sleeping"}, {Blocked, "blocked"}, {Done, "done"},
	} {
		if c.st.String() != c.want {
			t.Errorf("%d.String() = %q", c.st, c.st.String())
		}
	}
	if State(99).String() != "invalid" {
		t.Error("unknown state not invalid")
	}
}

func TestWaitPolicyString(t *testing.T) {
	for _, c := range []struct {
		p    WaitPolicy
		want string
	}{
		{WaitSpin, "spin"}, {WaitYield, "yield"},
		{WaitPollSleep, "poll-sleep"}, {WaitBlock, "block"},
		{WaitSpinThenBlock, "spin-then-block"},
	} {
		if c.p.String() != c.want {
			t.Errorf("%d.String() = %q", c.p, c.p.String())
		}
	}
}

func TestSeqProgram(t *testing.T) {
	p := &Seq{Actions: []Action{Compute(1), Sleep(2)}}
	if a := p.Next(nil, 0); a.Kind != ActCompute || a.Work != 1 {
		t.Fatalf("first action %+v, want Compute(1)", a)
	}
	if a := p.Next(nil, 0); a.Kind != ActSleep || a.D != 2 {
		t.Fatalf("second action %+v, want Sleep(2)", a)
	}
	if a := p.Next(nil, 0); a.Kind != ActExit {
		t.Fatal("exhausted Seq did not Exit")
	}
	if a := p.Next(nil, 0); a.Kind != ActExit {
		t.Fatal("Exit not sticky")
	}
}

func TestLoopProgram(t *testing.T) {
	p := &Loop{Iterations: 3, Body: []Action{Compute(1), Compute(2)}}
	var seq []Action
	for {
		a := p.Next(nil, 0)
		if a.Kind == ActExit {
			break
		}
		seq = append(seq, a)
		if len(seq) > 100 {
			t.Fatal("Loop does not terminate")
		}
	}
	if len(seq) != 6 {
		t.Fatalf("got %d actions, want 6", len(seq))
	}
	for i, a := range seq {
		if want := float64(i%2 + 1); a.Work != want {
			t.Errorf("action %d work %v, want %v", i, a.Work, want)
		}
	}
	if a := p.Next(nil, 0); a.Kind != ActExit {
		t.Error("Exit not sticky")
	}
}

// A Loop with an empty body exits rather than spinning, bounded or not.
func TestLoopEmptyBody(t *testing.T) {
	for _, iters := range []int{0, 2} {
		p := &Loop{Iterations: iters}
		if a := p.Next(nil, 0); a.Kind != ActExit {
			t.Errorf("Iterations %d: empty body returned %+v, want Exit", iters, a)
		}
	}
}

// The zero Action is Exit, so a program that returns nothing ends its
// task instead of handing the machine an action it cannot run.
func TestZeroActionExits(t *testing.T) {
	if (Action{}) != Exit() {
		t.Error("zero Action is not Exit")
	}
	a := WaitFor(nil, WaitSpinThenBlock, 5)
	if a.Kind != ActWait || a.Policy != WaitSpinThenBlock || a.Blocktime != 5 {
		t.Errorf("WaitFor built %+v", a)
	}
}

func TestComputeForever(t *testing.T) {
	p := &ComputeForever{Chunk: 7}
	for i := 0; i < 10; i++ {
		if a := p.Next(nil, 0); a.Kind != ActCompute || a.Work != 7 {
			t.Fatalf("action %d = %+v", i, a)
		}
	}
	d := &ComputeForever{}
	if a := d.Next(nil, 0); a.Work <= 0 {
		t.Error("default chunk not positive")
	}
}

// stepAllocs reports the allocations of stepping one fresh program per
// run from its first action through Exit. The programs are built before
// measuring, so only stepping is counted.
func stepAllocs(t *testing.T, newProg func() Program) float64 {
	t.Helper()
	const runs = 50
	progs := make([]Program, runs+1)
	for i := range progs {
		progs[i] = newProg()
	}
	next := 0
	return testing.AllocsPerRun(runs, func() {
		p := progs[next]
		next++
		for steps := 0; p.Next(nil, 0).Kind != ActExit; steps++ {
			if steps > 1000 {
				t.Fatal("program does not exit")
			}
		}
	})
}

// Stepping a Seq or a Loop hands back stored values: no allocation per
// action, per iteration or per job, even when tasks share the list.
func TestSteppingAllocatesNothing(t *testing.T) {
	steps := []Action{Sleep(1), Compute(2), WaitFor(nil, WaitBlock, 0), Compute(3)}
	if n := stepAllocs(t, func() Program { return &Seq{Actions: steps} }); n != 0 {
		t.Errorf("Seq: %v allocs per job, want 0", n)
	}
	if n := stepAllocs(t, func() Program { return &Loop{Body: steps, Iterations: 8} }); n != 0 {
		t.Errorf("Loop: %v allocs per job, want 0", n)
	}
}

func TestTaskPredicates(t *testing.T) {
	tk := &Task{State: Running}
	if !tk.Runnable() {
		t.Error("running task not runnable")
	}
	tk.State = Blocked
	if tk.Runnable() {
		t.Error("blocked task runnable")
	}
	tk.Affinity = cpuset.Of(5)
	if !tk.Pinned() {
		t.Error("single-core affinity not pinned")
	}
	tk.Affinity = tk.Affinity.Add(6)
	if tk.Pinned() {
		t.Error("two-core affinity pinned")
	}
}
