package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

// A Package is one loaded, type-checked analysis unit. Test files in the
// same package are checked together with the library files (so test
// helpers are covered); external test packages (package foo_test) form
// their own unit.
type Package struct {
	// Path is the import path, with "_test" appended for external test
	// packages.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Deps         []string
	Module       *struct{ Path string }
	DepsErrors   []*listError
	Error        *listError
	Incomplete   bool
}

type listError struct {
	Err string
}

// Load expands the go-list patterns (e.g. "./...") into packages and
// type-checks each from source. All units share one file set and one
// source importer, so the standard library and in-module dependencies
// are type-checked once per invocation.
func Load(patterns []string) ([]*Package, error) {
	listed, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)

	byPath := make(map[string]*listedPackage, len(listed))
	for _, lp := range listed {
		byPath[lp.ImportPath] = lp
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		// Library + in-package test files as one unit.
		unit := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
		p, err := check(fset, imp, lp.ImportPath, lp.Dir, unit)
		if err != nil {
			return nil, err
		}
		if p != nil {
			pkgs = append(pkgs, p)
		}
		// External test package, if any. When the package has in-package
		// test files, the external tests may use what they export.
		ximp := imp
		if p != nil && len(lp.TestGoFiles) > 0 && lp.Module != nil {
			ximp = &testImporter{fset: fset, base: imp, listed: byPath, module: lp.Module.Path,
				under: lp.ImportPath, variant: p.Types, checked: map[string]*types.Package{}}
		}
		px, err := check(fset, ximp, lp.ImportPath+"_test", lp.Dir, lp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		if px != nil {
			pkgs = append(pkgs, px)
		}
	}
	return pkgs, nil
}

// testImporter resolves an external test package's imports the way the
// go tool builds its test binary: the package under test includes its
// in-package test files, so export_test.go hooks resolve, and every
// module package that depends on it is checked again against that
// variant, so the test sees one identity for each of its types.
type testImporter struct {
	fset    *token.FileSet
	base    types.Importer
	listed  map[string]*listedPackage
	module  string
	under   string
	variant *types.Package
	checked map[string]*types.Package
}

func (ti *testImporter) Import(path string) (*types.Package, error) {
	if path == ti.under {
		return ti.variant, nil
	}
	if p, ok := ti.checked[path]; ok {
		return p, nil
	}
	if path != ti.module && !strings.HasPrefix(path, ti.module+"/") {
		return ti.base.Import(path)
	}
	lp := ti.listed[path]
	if lp == nil {
		// A module package outside the loaded patterns.
		l, err := goList([]string{path})
		if err != nil {
			return nil, err
		}
		lp = l[0]
		ti.listed[path] = lp
	}
	if !slices.Contains(lp.Deps, ti.under) {
		return ti.base.Import(path)
	}
	p, err := check(ti.fset, ti, path, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	ti.checked[path] = p.Types
	return p.Types, nil
}

// check parses and type-checks one unit; it returns nil for an empty
// file list.
func check(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// NewInfo allocates the types.Info maps the analyzers rely on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// goList shells out to the go command to resolve package patterns; this
// keeps the loader honest about build constraints and module layout.
func goList(patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &lp)
	}
	return pkgs, nil
}
