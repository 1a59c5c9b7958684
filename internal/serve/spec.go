package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"strings"

	"repro/internal/exp"
	"repro/internal/perturb"
)

// Spec is the wire form of one experiment request: the JSON document a
// client POSTs to /v1/runs. It mirrors the knobs of `lbos run` — an
// experiment ID from the internal/exp registry plus the workload dials
// (reps, scale, seed, perturb, predict) and one engine dial (parallel).
//
// The two groups are deliberately distinct. Workload dials select *what*
// is computed and are part of the cache identity; the engine dial
// selects *how fast* it is computed and is normalised out of the cache
// key, because the repository-wide determinism contract (README
// "Determinism policy", proven by internal/difftest) guarantees the
// output bytes are identical at every -parallel level.
type Spec struct {
	// Experiment is the registry ID (`lbos list`), e.g. "fig1".
	Experiment string `json:"experiment"`
	// Reps is the repetitions per configuration (default 10, the
	// paper's count; at most MaxReps).
	Reps int `json:"reps,omitempty"`
	// Scale divides workload sizes (default 1 = full paper scale).
	Scale int `json:"scale,omitempty"`
	// Seed is the base RNG seed (default 20100109, the PPoPP'10 date).
	Seed uint64 `json:"seed,omitempty"`
	// Perturb composes deterministic fault injection onto every run:
	// comma-separated families from noise, kthread, hotplug, freq,
	// storm, all ("" = none; "all" is canonicalised to the family list).
	Perturb string `json:"perturb,omitempty"`
	// Predict arms the speed balancer's predictive mode in SPEED runs.
	Predict bool `json:"predict,omitempty"`
	// Trace additionally records a Chrome trace-event stream, fetched
	// from /v1/runs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// Metrics appends the aggregated scheduler metrics tables to the
	// result document.
	Metrics bool `json:"metrics,omitempty"`

	// Parallel is the experiment grid's worker count (0 = GOMAXPROCS).
	// Engine dial: not part of the cache key.
	Parallel int `json:"parallel,omitempty"`
}

// Default workload dials, matching `lbos run`.
const (
	DefaultReps  = 10
	DefaultScale = 1
	DefaultSeed  = 20100109
)

// MaxReps caps a spec's repetitions at ten times the paper's count. The
// runner builds an experiment's whole grid before any cell runs, so the
// cap bounds the memory one small request can claim.
const MaxReps = 100

// ParseSpec decodes a wire spec strictly: unknown fields are errors, so
// a typo'd knob fails loudly instead of silently running the default.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("serve: invalid spec: %w", err)
	}
	// Anything but whitespace after the document is also a client
	// error, stray closing brackets included.
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("serve: invalid spec: trailing data after JSON document")
	}
	return s, nil
}

// Canonicalize validates the spec and fills defaults, returning the
// canonical form every equivalent submission maps to. The rules:
//
//   - Experiment must name a registered experiment.
//   - Reps/Scale default to 10/1 and Seed to 20100109 (a seed of 0
//     means "default", like the CLI); then exp.CheckDials bounds reps,
//     scale and parallel from below, and reps must not exceed MaxReps.
//   - Perturb is parsed (unknown families are errors) and rewritten to
//     a canonical family list: segments trimmed, empties dropped,
//     "all" expanded to "noise,hotplug,freq,storm", exact duplicates
//     deduplicated. Segment order is otherwise preserved — it carries
//     meaning ("noise,kthread" and "kthread,noise" pick different
//     noise presets, last one wins).
//   - The engine dial (Parallel) is validated but left as-is; Key
//     ignores it.
func (s Spec) Canonicalize() (Spec, error) {
	if s.Experiment == "" {
		return Spec{}, fmt.Errorf("serve: spec has no experiment ID")
	}
	if _, err := exp.ByID(s.Experiment); err != nil {
		return Spec{}, err
	}
	if s.Reps == 0 {
		s.Reps = DefaultReps
	}
	if s.Scale == 0 {
		s.Scale = DefaultScale
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if err := exp.CheckDials(s.Reps, s.Scale, s.Parallel); err != nil {
		return Spec{}, fmt.Errorf("serve: %w", err)
	}
	if s.Reps > MaxReps {
		return Spec{}, fmt.Errorf("serve: reps %d out of range (want ≤ %d)", s.Reps, MaxReps)
	}
	canon, err := canonicalPerturb(s.Perturb)
	if err != nil {
		return Spec{}, err
	}
	s.Perturb = canon
	return s, nil
}

// canonicalPerturb validates a perturbation family list and rewrites it
// to the canonical form described on Canonicalize.
func canonicalPerturb(spec string) (string, error) {
	if _, err := perturb.Parse(spec); err != nil {
		return "", err
	}
	var out []string
	seen := map[string]bool{}
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		switch name {
		case "":
			continue
		case "all":
			for _, fam := range []string{"noise", "hotplug", "freq", "storm"} {
				if !seen[fam] {
					seen[fam] = true
					out = append(out, fam)
				}
			}
		default:
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	return strings.Join(out, ","), nil
}

// canonicalSpec is the exact byte layout hashed into the cache key: the
// workload dials only, every field explicit (no omitempty), so the
// canonical JSON is a total function of the workload identity.
type canonicalSpec struct {
	Experiment string `json:"experiment"`
	Reps       int    `json:"reps"`
	Scale      int    `json:"scale"`
	Seed       uint64 `json:"seed"`
	Perturb    string `json:"perturb"`
	Predict    bool   `json:"predict"`
	Trace      bool   `json:"trace"`
	Metrics    bool   `json:"metrics"`
}

// CanonicalJSON renders the workload identity of an already-canonical
// spec as deterministic bytes (struct field order, all fields present).
func (s Spec) CanonicalJSON() []byte {
	b, err := json.Marshal(canonicalSpec{
		Experiment: s.Experiment,
		Reps:       s.Reps,
		Scale:      s.Scale,
		Seed:       s.Seed,
		Perturb:    s.Perturb,
		Predict:    s.Predict,
		Trace:      s.Trace,
		Metrics:    s.Metrics,
	})
	if err != nil {
		// A struct of scalars cannot fail to marshal.
		panic(err)
	}
	return b
}

// keyDomain separates lbosd cache keys from any other SHA-256 use and
// versions the key derivation itself: changing the canonical layout
// bumps this string, invalidating every old key.
const keyDomain = "lbos-serve/v1"

// Key derives the content address of the spec's result: the SHA-256 of
// (key domain, code version, canonical workload JSON), hex-encoded. The
// code version is part of the key because the cache stores *outputs of
// the code*, not facts about the world: the same spec under a different
// build may legitimately produce different bytes, and a stale hit would
// silently serve the old build's results (DESIGN.md §11).
func (s Spec) Key(version string) string {
	h := sha256.New()
	h.Write([]byte(keyDomain))
	h.Write([]byte{0})
	h.Write([]byte(version))
	h.Write([]byte{0})
	h.Write(s.CanonicalJSON())
	return hex.EncodeToString(h.Sum(nil))
}

// Context builds the experiment context a canonical spec runs under.
// The interrupt channel aborts the grid between cells (per-request
// cancellation; see exp.Context.Interrupt).
func (s Spec) Context(interrupt <-chan struct{}) (*exp.Context, error) {
	pcfg, err := perturb.Parse(s.Perturb)
	if err != nil {
		return nil, err
	}
	return &exp.Context{
		Reps:        s.Reps,
		Scale:       s.Scale,
		Seed:        s.Seed,
		Parallelism: s.Parallel,
		Perturb:     pcfg,
		Predict:     s.Predict,
		Interrupt:   interrupt,
	}, nil
}

// CodeVersion resolves the running build's identity for cache keys: the
// VCS revision when the binary was built from a stamped checkout (plus
// a dirty marker), else the module version, else "devel". Server tests
// pin Config.Version instead, so key derivation stays testable.
func CodeVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "devel"
	}
	var rev, modified string
	for _, st := range bi.Settings {
		switch st.Key {
		case "vcs.revision":
			rev = st.Value
		case "vcs.modified":
			modified = st.Value
		}
	}
	if rev != "" {
		if modified == "true" {
			return rev + "+dirty"
		}
		return rev
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	return "devel"
}
