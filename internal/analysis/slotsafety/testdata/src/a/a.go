// Package a seeds slotsafety violations against a stand-in for the
// experiment Runner: cell functions that capture submission-loop
// variables or mutate state shared across concurrently running cells.
package a

// RunResult and RunOpts mirror exp.RunResult and exp.RunOpts.
type RunResult struct{ Elapsed int64 }

type RunOpts struct{ Seed uint64 }

// Runner mirrors exp.Runner's submission surface; the analyzer matches
// the named type, so this double exercises the same code path.
type Runner struct{}

func (r *Runner) SubmitFunc(label string, run func(RunOpts) RunResult, fn func(RunResult)) {}

func measure(seed uint64) RunResult { return RunResult{Elapsed: int64(seed)} }

func capturesIndexVar(r *Runner, seeds []uint64) {
	for i := 0; i < len(seeds); i++ {
		r.SubmitFunc("cell",
			func(RunOpts) RunResult { return measure(seeds[i]) }, // want "captures loop variable i"
			nil)
	}
}

func capturesRangeVar(r *Runner, seeds []uint64) {
	for _, s := range seeds {
		r.SubmitFunc("cell",
			func(RunOpts) RunResult { return measure(s) }, // want "captures loop variable s"
			nil)
	}
}

func mutatesSharedCounter(r *Runner, seeds []uint64) int {
	done := 0
	for _, s := range seeds {
		s := s
		r.SubmitFunc("cell", func(RunOpts) RunResult {
			done++ // want "mutates done"
			return measure(s)
		}, nil)
	}
	return done
}

func mutatesSharedSlice(r *Runner, seeds []uint64) []int64 {
	var out []int64
	for _, s := range seeds {
		s := s
		r.SubmitFunc("cell", func(RunOpts) RunResult {
			res := measure(s)
			out = append(out, res.Elapsed) // want "mutates out"
			return res
		}, nil)
	}
	return out
}

func mutatesSharedMap(r *Runner, seeds []uint64) map[uint64]int64 {
	seen := map[uint64]int64{}
	for _, s := range seeds {
		s := s
		r.SubmitFunc("cell", func(RunOpts) RunResult {
			res := measure(s)
			seen[s] = res.Elapsed // want "mutates seen"
			delete(seen, 0)       // want "mutates seen"
			return res
		}, nil)
	}
	return seen
}

func mutatesThroughField(r *Runner, agg *struct{ total int64 }) {
	r.SubmitFunc("cell", func(RunOpts) RunResult {
		res := measure(1)
		agg.total += res.Elapsed // want "mutates agg"
		return res
	}, nil)
}

// shardState mirrors one shard's slot in the machine's shardStates.
type shardState struct {
	events int
	now    int64
}

func workerMutatesSharedTotal(states []shardState) int {
	total := 0
	for s := 0; s < len(states); s++ {
		go func(s int) {
			states[s].events++
			total += states[s].events // want "mutates total"
		}(s)
	}
	return total
}

func workerCapturesLoopVar(states []shardState) {
	for s := 0; s < len(states); s++ {
		go func() {
			states[s].events++ // want "mutates states" "captures loop variable s"
		}()
	}
}

func workerWritesOtherSlot(states []shardState, horizon int64) {
	for s := 0; s < len(states); s++ {
		go func(s int) {
			// The index is not the worker's own parameter: shared.
			states[0].now = horizon // want "mutates states"
		}(s)
	}
}

func workerDeletesSharedMap(pending map[int]int, shards int) {
	for s := 0; s < shards; s++ {
		go func(s int) {
			delete(pending, s) // want "mutates pending"
		}(s)
	}
}
