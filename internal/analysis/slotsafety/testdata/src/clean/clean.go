// Package clean holds the sanctioned Runner patterns that must never
// fire: snapshotted loop variables, aggregation in the ordered result
// callback, read-only captures, and the explicit escape hatch.
package clean

type RunResult struct{ Elapsed int64 }

type RunOpts struct{ Seed uint64 }

type Runner struct{}

func (r *Runner) SubmitFunc(label string, run func(RunOpts) RunResult, fn func(RunResult)) {}

type spec struct{ work int64 }

func measure(s spec, seed uint64) RunResult { return RunResult{Elapsed: s.work} }

// snapshot is the repo convention: the loop variable is frozen into an
// iteration-local before submission.
func snapshot(r *Runner, seeds []uint64) {
	s := spec{work: 100}
	for _, seed := range seeds {
		seed := seed
		r.SubmitFunc("cell",
			func(RunOpts) RunResult { return measure(s, seed) },
			nil)
	}
}

// aggregateInCallback mutates shared state only in the result callback,
// which the Runner delivers serially in submission order.
func aggregateInCallback(r *Runner, seeds []uint64) []int64 {
	var out []int64
	s := spec{work: 7}
	for _, seed := range seeds {
		seed := seed
		r.SubmitFunc("cell",
			func(RunOpts) RunResult { return measure(s, seed) },
			func(res RunResult) { out = append(out, res.Elapsed) })
	}
	return out
}

// bodyLocal state declared inside the loop body is per-iteration.
func bodyLocal(r *Runner, seeds []uint64) {
	for _, seed := range seeds {
		seed := seed
		retries := 0
		_ = retries
		r.SubmitFunc("cell", func(RunOpts) RunResult {
			local := measure(spec{}, seed)
			local.Elapsed *= 2
			return local
		}, nil)
	}
}

// allowed demonstrates the escape hatch for a deliberate shared write.
func allowed(r *Runner, counter *int) {
	r.SubmitFunc("cell", func(RunOpts) RunResult {
		*counter++ //lint:allow-slotsafety intentionally racy debug counter
		return RunResult{}
	}, nil)
}

// shardState mirrors one shard's slot in the machine's shardStates.
type shardState struct {
	events int
	now    int64
}

// slotConfined is the machine's window-worker idiom: the shard index
// arrives as an argument and every write lands in the worker's own
// slot; the fold after the window merges the slots on the event loop.
func slotConfined(states []shardState, horizon int64) int {
	for s := 0; s < len(states); s++ {
		go func(s int) {
			states[s].events++
			states[s].now = horizon
		}(s)
	}
	total := 0
	for s := range states {
		total += states[s].events
	}
	return total
}

// workerLocals writes only its own locals and reads outer config.
func workerLocals(horizon int64, shards int) {
	for s := 0; s < shards; s++ {
		go func(s int) {
			fired := 0
			for t := int64(s); t < horizon; t += 7 {
				fired++
			}
			_ = fired
		}(s)
	}
}

// allowedWorker demonstrates the escape hatch for a deliberate shared
// write (a mutex-guarded progress counter, as in cmd/speedbalance).
func allowedWorker(finished *int, shards int) {
	for s := 0; s < shards; s++ {
		go func(s int) {
			*finished++ //lint:allow-slotsafety mutex-guarded progress counter
		}(s)
	}
}
