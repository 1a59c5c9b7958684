// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis. The repository's hard
// requirement — experiment output is a pure function of (machine,
// workload, balancer, seed) and bit-identical at any Parallelism level —
// is a semantic property that tests can only spot-check; the analyzers
// built on this package (nodeterm, maporder, slotsafety) enforce it
// structurally over every current and future driver.
//
// x/tools is deliberately not imported: the module is self-contained, so
// the linter builds with nothing but the standard library. The API
// mirrors go/analysis closely enough that the analyzers could be ported
// to a vet -vettool multichecker by swapping this package for the real
// one.
//
// Findings can be suppressed at a call site with a directive comment on
// the same line or the line directly above:
//
//	start := time.Now() //lint:allow-wallclock progress reporting only
//
// The directive names the diagnostic's category (wallclock, rand,
// select, maporder, slotsafety, machineglobal), so an escape hatch for
// one rule never silences another on the same line.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is the one-paragraph description shown by lbos-lint -help.
	Doc string
	// Run applies the check to one package, reporting findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer with one type-checked package. Unlike
// x/tools, there is no Facts machinery: every check here is local to a
// package, which keeps the driver a single parse+typecheck sweep.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	// Category selects the //lint:allow-<category> directive that
	// suppresses the finding.
	Category string
	Message  string
}

// Reportf records a finding at pos under the given suppression category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Category: category,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies the analyzers to one type-checked package and returns the
// surviving findings: diagnostics matched by an allow directive are
// dropped here, so both lbos-lint and the analysistest harness see
// exactly what a user would. Findings are ordered by position.
func Run(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			diags:     &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sup := newSuppressor(fset, files)
	kept := diags[:0]
	for _, d := range diags {
		if !sup.suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].Pos != kept[j].Pos {
			return kept[i].Pos < kept[j].Pos
		}
		return kept[i].Analyzer < kept[j].Analyzer
	})
	return kept, nil
}

// Categories is the canonical suppression-category vocabulary, the
// single source the allowdoc analyzer, the lint-budget ledger, and the
// documentation table draw from. A //lint:allow-<category> directive
// naming anything else is itself a finding.
var Categories = []string{
	"wallclock", "rand", "select", "maporder", "slotsafety",
	"machineglobal", "windowsafe", "timeunits", "allowdoc",
}

// KnownCategory reports whether cat is in the canonical vocabulary.
func KnownCategory(cat string) bool {
	for _, c := range Categories {
		if c == cat {
			return true
		}
	}
	return false
}

// A Directive is one parsed //lint:allow-<category> comment.
type Directive struct {
	Pos      token.Pos
	Category string
	// Justification is the free-form text after the category — the
	// reviewer-facing reason the site is exempt. allowdoc requires it.
	Justification string
}

// Directives extracts every suppression directive from the files, in
// file order. The suppressor, the allowdoc analyzer, and the lbos-lint
// ledger all parse directives through this one function so they can
// never disagree about what counts as one.
func Directives(files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, directivePrefix)
				// The category runs to the first space; anything after
				// is the free-form justification.
				cat, just, _ := strings.Cut(rest, " ")
				if cat == "" {
					continue
				}
				// In analyzer corpora a directive line may also carry a
				// "// want" expectation; that is harness metadata, not
				// justification text.
				if i := strings.Index(just, "// want "); i >= 0 {
					just = just[:i]
				}
				out = append(out, Directive{
					Pos:           c.Pos(),
					Category:      cat,
					Justification: strings.TrimSpace(just),
				})
			}
		}
	}
	return out
}

// RecvTypeName resolves the name of the named receiver type of a method
// call selector, or "" when sel is not a method selection. Pointerness
// is stripped: (*Queue).Schedule and Queue.Schedule both report "Queue".
// Matching receivers by name rather than by package identity keeps the
// analyzers portable across test doubles and corpora, the same
// convention slotsafety established for Runner.
func RecvTypeName(info *types.Info, sel *ast.SelectorExpr) string {
	selection := info.Selections[sel]
	if selection == nil {
		return ""
	}
	recv := selection.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// suppressor indexes //lint:allow-<category> directives by file line.
type suppressor struct {
	fset *token.FileSet
	// allows maps filename -> line -> categories allowed on that line.
	allows map[string]map[int][]string
}

const directivePrefix = "//lint:allow-"

func newSuppressor(fset *token.FileSet, files []*ast.File) *suppressor {
	s := &suppressor{fset: fset, allows: map[string]map[int][]string{}}
	for _, d := range Directives(files) {
		pos := fset.Position(d.Pos)
		byLine := s.allows[pos.Filename]
		if byLine == nil {
			byLine = map[int][]string{}
			s.allows[pos.Filename] = byLine
		}
		byLine[pos.Line] = append(byLine[pos.Line], d.Category)
	}
	return s
}

// suppressed reports whether d is covered by an allow directive on its
// own line or the line directly above it.
func (s *suppressor) suppressed(d Diagnostic) bool {
	pos := s.fset.Position(d.Pos)
	byLine := s.allows[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, cat := range byLine[line] {
			if cat == d.Category {
				return true
			}
		}
	}
	return false
}
