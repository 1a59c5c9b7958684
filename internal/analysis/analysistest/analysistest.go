// Package analysistest runs an analyzer over testdata packages and
// checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest with a stdlib-only
// implementation.
//
// A test package lives in testdata/src/<name>/ beside the analyzer's
// test. Each expected diagnostic is declared on the line it fires:
//
//	start := time.Now() // want "reads the wall clock"
//
// The quoted string is a regular expression matched against the
// diagnostic message; several strings on one line expect several
// diagnostics. An expectation may pin the suppression category too:
//
//	m.Stop() // want machineglobal:"event-loop-only operation"
//
// matches only a diagnostic whose category is machineglobal, so
// corpora for analyzers that report under several categories
// (windowsafe emits both machineglobal and windowsafe) assert the
// category routing, not just the message. Lines without a want comment must stay silent, so the
// same corpus pins both positives and false-positive guards. Findings
// suppressed by //lint:allow-* directives never reach matching —
// a directive line with no want comment asserts the escape hatch works.
package analysistest

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRE extracts the expectations from a want comment: an optional
// category qualifier followed by a quoted message regexp.
var wantRE = regexp.MustCompile(`(?:([a-zA-Z][a-zA-Z0-9_-]*):)?("(?:[^"\\]|\\.)*")`)

// Run applies the analyzer to each named package under dir (usually
// "testdata/src") and reports mismatches through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	for _, name := range pkgs {
		runPackage(t, fset, imp, filepath.Join(dir, name), a)
	}
}

func runPackage(t *testing.T, fset *token.FileSet, imp types.Importer, dir string, a *analysis.Analyzer) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	info := analysis.NewInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(files[0].Name.Name, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", dir, err)
	}
	diags, err := analysis.Run([]*analysis.Analyzer{a}, fset, files, pkg, info)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, dir, err)
	}
	match(t, fset, files, diags)
}

// wantPayload extracts the expectation list from a comment: either the
// whole comment is a want comment (`// want "re"`), or one is appended
// after another trailing comment (`//lint:allow-rand // want "re"`).
func wantPayload(comment string) (string, bool) {
	trimmed := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	if strings.HasPrefix(trimmed, "want ") {
		return trimmed, true
	}
	if i := strings.LastIndex(comment, "// want "); i >= 0 {
		return comment[i+3:], true
	}
	return "", false
}

// expectation is one want regexp, consumed when a diagnostic matches it.
// A non-empty cat additionally requires the diagnostic's category.
type expectation struct {
	re   *regexp.Regexp
	cat  string
	text string
	used bool
}

// match compares diagnostics to want comments line by line.
func match(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := wantPayload(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRE.FindAllStringSubmatch(text, -1) {
					cat, q := m[1], m[2]
					unq, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(unq)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, unq, err)
					}
					label := unq
					if cat != "" {
						label = cat + ":" + unq
					}
					wants[k] = append(wants[k], &expectation{re: re, cat: cat, text: label})
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.used && w.re.MatchString(d.Message) && (w.cat == "" || w.cat == d.Category) {
				w.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s [%s]: %s", pos, d.Analyzer, d.Category, d.Message)
		}
	}
	keys := make([]key, 0, len(wants))
	for k := range wants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		for _, w := range wants[k] {
			if !w.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.text)
			}
		}
	}
}
