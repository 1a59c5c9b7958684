package serve

import (
	"strings"
	"testing"
)

func TestParseSpecStrict(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"experiment":"fig1","repz":3}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec([]byte(`{"experiment":"fig1"} trailing`)); err == nil {
		t.Error("trailing data accepted")
	}
	s, err := ParseSpec([]byte(`{"experiment":"fig1","reps":3,"seed":7}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Experiment != "fig1" || s.Reps != 3 || s.Seed != 7 {
		t.Errorf("parsed %+v", s)
	}
}

func TestCanonicalizeDefaultsAndValidation(t *testing.T) {
	s, err := Spec{Experiment: "fig1"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if s.Reps != DefaultReps || s.Scale != DefaultScale || s.Seed != DefaultSeed {
		t.Errorf("defaults not filled: %+v", s)
	}

	for _, bad := range []Spec{
		{},                                   // no experiment
		{Experiment: "no-such-experiment"},   // unregistered
		{Experiment: "fig1", Reps: -1},       // bad reps
		{Experiment: "fig1", Scale: -2},      // bad scale
		{Experiment: "fig1", Perturb: "zap"}, // unknown family
		{Experiment: "fig1", Shards: -1},     // bad shards
		{Experiment: "fig1", Parallel: -3},   // bad parallel
	} {
		if _, err := bad.Canonicalize(); err == nil {
			t.Errorf("spec %+v canonicalized without error", bad)
		}
	}

	// Canonicalization is idempotent.
	again, err := s.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if again != s {
		t.Errorf("canonicalize not idempotent: %+v vs %+v", again, s)
	}
}

func TestCanonicalPerturb(t *testing.T) {
	cases := []struct{ in, want string }{
		{"", ""},
		{" noise , hotplug ", "noise,hotplug"},
		{"all", "noise,hotplug,freq,storm"},
		{"noise,noise,freq", "noise,freq"},
		// Order is preserved: noise vs kthread pick different presets
		// and the last mention wins inside perturb.Parse.
		{"kthread,noise", "kthread,noise"},
	}
	for _, c := range cases {
		got, err := canonicalPerturb(c.in)
		if err != nil {
			t.Errorf("canonicalPerturb(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("canonicalPerturb(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := canonicalPerturb("noise,zap"); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestKeyCoversWorkloadNotEngine(t *testing.T) {
	base, err := Spec{Experiment: "fig1", Reps: 2, Scale: 8}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	key := base.Key("v1")

	// Engine dials do not move the key: the determinism contract says
	// they cannot change one output byte.
	engine := base
	engine.Parallel, engine.Shards, engine.ShardParallel = 8, 4, true
	if engine.Key("v1") != key {
		t.Error("engine dials changed the cache key")
	}

	// Workload dials and the code version do.
	for _, c := range []struct {
		name  string
		other string
	}{
		{"seed", func() string { s := base; s.Seed = 99; return s.Key("v1") }()},
		{"reps", func() string { s := base; s.Reps = 3; return s.Key("v1") }()},
		{"scale", func() string { s := base; s.Scale = 4; return s.Key("v1") }()},
		{"perturb", func() string { s := base; s.Perturb = "noise"; return s.Key("v1") }()},
		{"predict", func() string { s := base; s.Predict = true; return s.Key("v1") }()},
		{"trace", func() string { s := base; s.Trace = true; return s.Key("v1") }()},
		{"metrics", func() string { s := base; s.Metrics = true; return s.Key("v1") }()},
		{"version", base.Key("v2")},
	} {
		if c.other == key {
			t.Errorf("changing %s did not change the cache key", c.name)
		}
	}

	// Keys are stable across derivations.
	if base.Key("v1") != key {
		t.Error("key derivation is not deterministic")
	}
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		t.Errorf("key %q is not lowercase hex SHA-256", key)
	}
}

func TestCanonicalJSONIsTotal(t *testing.T) {
	s, err := Spec{Experiment: "fig1"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	got := string(s.CanonicalJSON())
	want := `{"experiment":"fig1","reps":10,"scale":1,"seed":20100109,"perturb":"","predict":false,"trace":false,"metrics":false}`
	if got != want {
		t.Errorf("canonical JSON\n got %s\nwant %s", got, want)
	}
}
