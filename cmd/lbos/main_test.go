package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsBadDials: a dial no run can use exits 2 with one stderr
// line naming the flag, before any experiment starts (no table header
// on stdout). Unchecked, -scale 0 divides by zero inside the open-system
// drivers and -reps 0 tabulates zeros.
func TestRunRejectsBadDials(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"-scale 0 open-bakeoff", "-scale 0"},
		{"-scale 0 predict-bakeoff", "-scale 0"},
		{"-reps 0 fig1", "-reps 0"},
		{"-reps -2 fig1", "-reps -2"},
		{"-scale -3 fig1", "-scale -3"},
		{"-parallel -4 fig1", "-parallel -4"},
		// Bounds are checked in the order reps, scale, parallel.
		{"-parallel -1 -scale 0 -reps 0 fig1", "-reps 0"},
	} {
		var out, errb bytes.Buffer
		if code := run(strings.Fields(c.args), &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", c.args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed output:\n%s", c.args, out.String())
		}
		msg := errb.String()
		if strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "lbos: "+c.flag+" ") {
			t.Errorf("%s: stderr %q, want one line naming %s", c.args, msg, c.flag)
		}
	}
}

// TestRunRejectsRemovedEngineFlags: no run-wide dial selects the
// engine, so -shards and -shardpar are unknown flags.
func TestRunRejectsRemovedEngineFlags(t *testing.T) {
	for _, args := range []string{"-shards 4 fig1", "-shardpar fig1"} {
		var out, errb bytes.Buffer
		if code := run(strings.Fields(args), &out, &errb); code != 2 {
			t.Errorf("%s: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed output:\n%s", args, out.String())
		}
		if !strings.Contains(errb.String(), "flag provided but not defined") {
			t.Errorf("%s: stderr %q, want the flag package's error", args, errb.String())
		}
	}
}

// TestRunSmallestValidDials: the lower bounds themselves are valid.
func TestRunSmallestValidDials(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(strings.Fields("-q -reps 1 -scale 1 -parallel 0 fig1"), &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	if !strings.HasPrefix(out.String(), "### fig1 ") {
		t.Errorf("stdout does not start with the fig1 header:\n%.200s", out.String())
	}
}

// TestRunCSVFailureExitsOne: a -csv directory that cannot be created
// ends the run with exit 1 and one stderr line; a writable one gets a
// file per table.
func TestRunCSVFailureExitsOne(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	args := []string{"-q", "-reps", "1", "-scale", "32", "-csv", filepath.Join(file, "sub"), "table1"}
	if code := run(args, &out, &errb); code != 1 {
		t.Errorf("unwritable -csv: exit %d, want 1", code)
	}
	if msg := errb.String(); strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "lbos: ") {
		t.Errorf("unwritable -csv: stderr %q, want one lbos: line", msg)
	}

	csvDir := filepath.Join(dir, "csv")
	args = []string{"-q", "-reps", "1", "-scale", "32", "-csv", csvDir, "table1"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("writable -csv: exit %d, stderr %q", code, errb.String())
	}
	if files, _ := filepath.Glob(filepath.Join(csvDir, "table1_0_*.csv")); len(files) != 1 {
		t.Errorf("writable -csv wrote %v, want one table1_0_*.csv", files)
	}
}
