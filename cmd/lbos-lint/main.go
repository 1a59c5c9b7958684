// Command lbos-lint statically enforces the repository's determinism
// contract: experiment output must be a pure function of (machine,
// workload, balancer, seed), bit-identical at any Parallelism level.
//
// Usage:
//
//	lbos-lint [-only names] [-f text|json|github] [-o report.json]
//	          [-ledger lint-budget.txt] packages...
//	lbos-lint -write-ledger lint-budget.txt ./...
//
// It runs six analyzers (see each package's doc for the full rules):
//
//	nodeterm    wall-clock reads, global math/rand, nondeterministically
//	            seeded sources, selects that race
//	maporder    range over a map feeding an output sink without a sort
//	slotsafety  Runner cell functions and go-launched worker goroutines
//	            that capture loop variables or mutate shared state
//	            outside their own slot
//	windowsafe  machine-global calls, tracer/metrics emission, and
//	            global writes on any path reachable from a go-launched
//	            worker literal (package-local call graph)
//	timeunits   wall-clock nanoseconds or bare time.Duration values
//	            flowing into simulated-time positions without an
//	            explicit conversion site
//	allowdoc    every //lint:allow-* directive must name a known
//	            category and carry a justification
//
// Output formats: text (file:line:col: analyzer [category]: message),
// json (the report schema below), github (workflow error annotations).
// -o additionally writes the JSON report to a file regardless of the
// display format, for CI artifact upload. Any finding makes the exit
// status 1.
//
// The suppression ledger: -ledger compares the per-category counts of
// //lint:allow-<category> directives in the loaded packages against a
// committed budget file and fails when they differ, so a new escape
// hatch cannot land without a reviewed ledger update. -write-ledger
// regenerates the file from the current tree.
//
// A site that is deliberately exempt carries a //lint:allow-<category>
// directive on its line or the line above; the category vocabulary is
// analysis.Categories.
//
// The implementation is stdlib-only (see internal/analysis); the
// analyzers follow the golang.org/x/tools/go/analysis shape, so they
// could be rehosted on a vet -vettool multichecker if x/tools is ever
// vendored.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/allowdoc"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nodeterm"
	"repro/internal/analysis/slotsafety"
	"repro/internal/analysis/timeunits"
	"repro/internal/analysis/windowsafe"
)

var all = []*analysis.Analyzer{
	nodeterm.Analyzer, maporder.Analyzer, slotsafety.Analyzer,
	windowsafe.Analyzer, timeunits.Analyzer, allowdoc.Analyzer,
}

// finding is one diagnostic in the JSON report schema.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Category string `json:"category"`
	Message  string `json:"message"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	format := flag.String("f", "text", "output format: text, json, or github (workflow annotations)")
	report := flag.String("o", "", "also write the JSON report to this file")
	ledger := flag.String("ledger", "", "verify //lint:allow-* counts against this committed budget file")
	writeLedger := flag.String("write-ledger", "", "regenerate the budget file from the current tree and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: lbos-lint [-only names] [-f text|json|github] [-o report.json] [-ledger file] packages...\n\nanalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "github":
	default:
		fmt.Fprintf(os.Stderr, "lbos-lint: unknown format %q\n", *format)
		os.Exit(2)
	}

	analyzers := all
	if *only != "" {
		analyzers = nil
		for _, name := range strings.Split(*only, ",") {
			found := false
			for _, a := range all {
				if a.Name == name {
					analyzers = append(analyzers, a)
					found = true
				}
			}
			if !found {
				fmt.Fprintf(os.Stderr, "lbos-lint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
		}
	}

	pkgs, err := analysis.Load(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbos-lint:", err)
		os.Exit(2)
	}

	if *writeLedger != "" {
		if err := os.WriteFile(*writeLedger, []byte(formatLedger(countDirectives(pkgs))), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "lbos-lint:", err)
			os.Exit(2)
		}
		return
	}

	findings := []finding{} // non-nil so JSON renders [] when clean
	for _, pkg := range pkgs {
		diags, err := analysis.Run(analyzers, pkg.Fset, pkg.Files, pkg.Types, pkg.Info)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbos-lint: %s: %v\n", pkg.Path, err)
			os.Exit(2)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File:     pos.Filename,
				Line:     pos.Line,
				Col:      pos.Column,
				Analyzer: d.Analyzer,
				Category: d.Category,
				Message:  d.Message,
			})
		}
	}

	switch *format {
	case "json":
		emitJSON(os.Stdout, findings)
	case "github":
		for _, f := range findings {
			// One workflow error annotation per finding; GitHub renders
			// them inline on the PR diff.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=lbos-lint %s [%s]::%s\n",
				f.File, f.Line, f.Col, f.Analyzer, f.Category, escapeAnnotation(f.Message))
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s [%s]: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Category, f.Message)
		}
	}
	if *report != "" {
		rf, err := os.Create(*report)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lbos-lint:", err)
			os.Exit(2)
		}
		emitJSON(rf, findings)
		if err := rf.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "lbos-lint:", err)
			os.Exit(2)
		}
	}

	failed := len(findings) > 0
	if *ledger != "" {
		if !checkLedger(*ledger, countDirectives(pkgs)) {
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func emitJSON(w *os.File, findings []finding) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(findings); err != nil {
		fmt.Fprintln(os.Stderr, "lbos-lint:", err)
		os.Exit(2)
	}
}

// escapeAnnotation applies the workflow-command escaping rules to an
// annotation message.
func escapeAnnotation(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// countDirectives tallies //lint:allow-* directives per category across
// the loaded packages — the same parse the suppressor uses, so the
// ledger can never disagree with what is actually suppressed.
func countDirectives(pkgs []*analysis.Package) map[string]int {
	counts := map[string]int{}
	for _, pkg := range pkgs {
		for _, d := range analysis.Directives(pkg.Files) {
			counts[d.Category]++
		}
	}
	return counts
}

// formatLedger renders the budget file: sorted "category count" lines
// under a regeneration hint.
func formatLedger(counts map[string]int) string {
	cats := make([]string, 0, len(counts))
	for c := range counts {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	var b strings.Builder
	b.WriteString("# Suppression ledger: committed //lint:allow-* budget per category.\n")
	b.WriteString("# CI fails when the tree's counts differ from this file, so a new\n")
	b.WriteString("# escape hatch cannot land without a reviewed update here.\n")
	b.WriteString("# Regenerate: go run ./cmd/lbos-lint -write-ledger lint-budget.txt ./...\n")
	for _, c := range cats {
		fmt.Fprintf(&b, "%s %d\n", c, counts[c])
	}
	return b.String()
}

// checkLedger compares the tree's directive counts to the committed
// budget and explains every drift.
func checkLedger(path string, actual map[string]int) bool {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbos-lint: ledger:", err)
		return false
	}
	budget := map[string]int{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cat, numStr, ok := strings.Cut(line, " ")
		if !ok {
			fmt.Fprintf(os.Stderr, "lbos-lint: ledger: %s:%d: malformed line %q\n", path, i+1, line)
			return false
		}
		n, err := strconv.Atoi(strings.TrimSpace(numStr))
		if err != nil {
			fmt.Fprintf(os.Stderr, "lbos-lint: ledger: %s:%d: bad count %q\n", path, i+1, numStr)
			return false
		}
		budget[cat] = n
	}
	ok := true
	cats := map[string]bool{}
	for c := range budget {
		cats[c] = true
	}
	for c := range actual {
		cats[c] = true
	}
	sorted := make([]string, 0, len(cats))
	for c := range cats {
		sorted = append(sorted, c)
	}
	sort.Strings(sorted)
	for _, c := range sorted {
		a, b := actual[c], budget[c]
		if a == b {
			continue
		}
		ok = false
		switch {
		case a > b:
			fmt.Fprintf(os.Stderr,
				"lbos-lint: ledger: %d %s suppression(s) in the tree but %d budgeted in %s; remove the new //lint:allow-%s or update the ledger in the same change\n",
				a, c, b, path, c)
		default:
			fmt.Fprintf(os.Stderr,
				"lbos-lint: ledger: %d %s suppression(s) in the tree but %d budgeted in %s; shrink the ledger to match\n",
				a, c, b, path)
		}
	}
	return ok
}
