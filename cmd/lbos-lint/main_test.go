package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/analysis"
)

func TestLedgerRoundTrip(t *testing.T) {
	counts := map[string]int{"timeunits": 2, "wallclock": 1}
	path := filepath.Join(t.TempDir(), "budget.txt")
	if err := os.WriteFile(path, []byte(formatLedger(counts)), 0o644); err != nil {
		t.Fatal(err)
	}
	if !checkLedger(path, counts) {
		t.Error("ledger written from counts must verify against them")
	}
}

func TestLedgerCatchesDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.txt")
	if err := os.WriteFile(path, []byte(formatLedger(map[string]int{"windowsafe": 1})), 0o644); err != nil {
		t.Fatal(err)
	}
	if checkLedger(path, map[string]int{"windowsafe": 2}) {
		t.Error("a new suppression must fail the gate")
	}
	if checkLedger(path, map[string]int{}) {
		t.Error("a stale budget line must fail the gate")
	}
	if checkLedger(path, map[string]int{"windowsafe": 1, "timeunits": 1}) {
		t.Error("a suppression in an unbudgeted category must fail the gate")
	}
}

func TestLedgerRejectsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "budget.txt")
	if err := os.WriteFile(path, []byte("windowsafe\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if checkLedger(path, map[string]int{}) {
		t.Error("malformed ledger line must fail the gate")
	}
	if checkLedger(filepath.Join(t.TempDir(), "missing.txt"), map[string]int{}) {
		t.Error("missing ledger file must fail the gate")
	}
}

// TestRepoSweepIsClean is the in-tree twin of the CI lint gate: every
// analyzer over every package must report nothing, and the tree's
// suppression counts must match the committed lint-budget.txt exactly.
// A true positive introduced anywhere in the repo — or an escape hatch
// added without a ledger update — fails here before CI sees it.
func TestRepoSweepIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide typecheck sweep is slow; run without -short")
	}
	pkgs, err := analysis.Load([]string{"repro/..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	for _, pkg := range pkgs {
		diags, err := analysis.Run(all, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			t.Fatalf("run on %s: %v", pkg.Path, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s [%s]: %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Category, d.Message)
		}
	}
	ledger, err := filepath.Abs(filepath.Join("..", "..", "lint-budget.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !checkLedger(ledger, countDirectives(pkgs)) {
		t.Error("suppression counts drifted from lint-budget.txt; regenerate with -write-ledger and review the diff")
	}
}
