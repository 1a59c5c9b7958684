// Package windowsafe implements the shard-window isolation analyzer.
//
// Inside a parallel lookahead window (internal/sim) every shard worker —
// a goroutine the machine launches as `go func(s int) { ... }(s)` —
// may touch only its own shard's state. The simulator enforces this at
// runtime with tripwire panics and precondition checks (windows refuse
// to open while a tracer or metrics registry is attached); this analyzer
// enforces it at lint time, and — unlike the per-statement machineglobal
// check it replaces in nodeterm — it follows the package-local call
// graph, so a hazard buried two helpers deep under the worker literal is
// found without ever executing a window.
//
// The analyzer computes the set of functions in the package statically
// reachable from every go-launched function literal (reachability
// follows direct calls to same-package functions and methods; calls
// through function values, interfaces, or other packages end the chain,
// which keeps the check honest about what it can see). In the literal
// and every reachable function it flags:
//
//   - machine-global Machine operations (Stop, Sync, NewTask, Start,
//     StartOn, SetCoreOnline, SetCoreFreq, SetCoreStolen, RNG, AddActor,
//     SetPlacer, BlockWindows, Run, RunFor, Migrate, MigrateNow):
//     event-loop-only calls whose order must not depend on goroutine
//     scheduling — category machineglobal, the same directive
//     vocabulary the nodeterm check used;
//   - tracer/metrics emission (Machine.Emit, Ring.Emit, Counter.Inc/Add,
//     Gauge.Set, Histogram.Observe, Registry.Counter/Gauge/Histogram —
//     registry lookups lazily allocate, so even a read mutates shared
//     state): windows only open with observability detached, so emission
//     on a worker path either panics at runtime or silently interleaves
//     — category windowsafe;
//   - writes to package-level variables: global state is by definition
//     cross-shard — category windowsafe.
//
// A Machine (or registry) the worker constructs for itself is exempt:
// calls whose receiver chain roots at a variable declared inside the
// body of the function under scrutiny are goroutine-local, the pattern
// exp.Runner cells follow: exp.Run builds each cell's machine inside the
// cell. Receivers and parameters are not exempt — they arrived from
// outside the goroutine.
//
// Diagnostics on reachable functions carry the witness call path from
// the worker literal, so the finding is actionable without re-deriving
// the reachability by hand. //lint:allow-machineglobal and
// //lint:allow-windowsafe mark calls that are provably serialised (e.g.
// under the machine's own window barrier).
package windowsafe

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the windowsafe analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "windowsafe",
	Doc:  "flag machine-global calls, tracer/metrics emission, and global writes on any path reachable from a go-launched worker literal",
	Run:  run,
}

// machineGlobal lists the Machine methods that are event-loop-only:
// each either panics behind a window tripwire or mutates machine-wide
// state whose update order must not depend on goroutine scheduling.
var machineGlobal = map[string]bool{
	"Stop": true, "Sync": true, "NewTask": true,
	"Start": true, "StartOn": true, "SetCoreOnline": true,
	"SetCoreFreq": true, "SetCoreStolen": true, "RNG": true,
	"AddActor": true, "SetPlacer": true, "BlockWindows": true,
	"Run": true, "RunFor": true, "Migrate": true, "MigrateNow": true,
}

// emitters maps receiver type name -> method names that emit trace or
// metrics state. Registry lookups are included because they lazily
// allocate the named instrument: even "just reading" mutates the shared
// registry map.
var emitters = map[string]map[string]bool{
	"Machine":   {"Emit": true},
	"Ring":      {"Emit": true},
	"Counter":   {"Inc": true, "Add": true},
	"Gauge":     {"Set": true},
	"Histogram": {"Observe": true},
	"Registry":  {"Counter": true, "Gauge": true, "Histogram": true},
}

func run(pass *analysis.Pass) error {
	// Index every function and method declared in this package by its
	// types.Func object, for call-graph edges.
	decls := map[*types.Func]*ast.FuncDecl{}
	declName := map[*types.Func]string{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
				name := fd.Name.Name
				if fd.Recv != nil {
					name = recvString(fd) + "." + name
				}
				declName[fn] = name
			}
		}
	}

	// Find the worker roots: every function literal launched by a go
	// statement, together with the literal itself for depth-0 checks.
	type root struct {
		lit *ast.FuncLit
	}
	var roots []root
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
				roots = append(roots, root{lit: lit})
			}
			return true
		})
	}
	if len(roots) == 0 {
		return nil
	}

	// BFS the package-local call graph from each root, recording the
	// first witness path to each reachable function. Reachability and
	// findings are deduplicated across roots: a helper reachable from
	// two workers is reported once.
	type item struct {
		fn   *types.Func
		path []string
	}
	reached := map[*types.Func][]string{}
	var queue []item
	enqueue := func(body ast.Node, path []string) {
		for _, callee := range directCallees(pass, body, decls) {
			if _, ok := reached[callee]; ok {
				continue
			}
			p := append(append([]string{}, path...), declName[callee])
			reached[callee] = p
			queue = append(queue, item{fn: callee, path: p})
		}
	}
	reportedAt := map[string]bool{}
	for _, r := range roots {
		// Depth 0: the literal body itself.
		checkBody(pass, r.lit.Body, nil, reportedAt)
		enqueue(r.lit.Body, nil)
	}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		fd := decls[it.fn]
		checkBody(pass, fd.Body, it.path, reportedAt)
		enqueue(fd.Body, it.path)
	}
	return nil
}

// directCallees returns the same-package functions and methods that body
// calls directly. Calls through function values, interface methods, or
// other packages are not resolvable statically and end the chain.
func directCallees(pass *analysis.Pass, body ast.Node, decls map[*types.Func]*ast.FuncDecl) []*types.Func {
	var out []*types.Func
	seen := map[*types.Func]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var obj types.Object
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			obj = pass.TypesInfo.Uses[fun]
		case *ast.SelectorExpr:
			obj = pass.TypesInfo.Uses[fun.Sel]
		}
		fn, ok := obj.(*types.Func)
		if !ok || seen[fn] {
			return true
		}
		if _, declared := decls[fn]; declared {
			seen[fn] = true
			out = append(out, fn)
		}
		return true
	})
	return out
}

// checkBody flags the three hazard classes inside one worker-reachable
// function body. Variables declared inside the body itself (a Machine
// the goroutine constructs for its own run) are goroutine-local and
// exempt; receivers and parameters are not — they arrived from outside
// the goroutine.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt, path []string, reportedAt map[string]bool) {
	via := ""
	if len(path) > 0 {
		via = " (reachable from a go-launched worker via " + strings.Join(path, " → ") + ")"
	}
	report := func(pos ast.Node, category, format string, args ...any) {
		key := fmt.Sprintf("%d-%s", pos.Pos(), category)
		if reportedAt[key] {
			return
		}
		reportedAt[key] = true
		pass.Reportf(pos.Pos(), category, format+via, args...)
	}
	localTo := func(e ast.Expr) bool {
		obj := rootObj(pass, e)
		return obj != nil && obj.Pos() >= body.Pos() && obj.Pos() <= body.End()
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := analysis.RecvTypeName(pass.TypesInfo, sel)
			if recv == "" || localTo(sel.X) {
				return true
			}
			if recv == "Machine" && machineGlobal[sel.Sel.Name] {
				report(n, "machineglobal",
					"Machine.%s is a machine-global, event-loop-only operation; a worker goroutine must act through its own shard's state and defer global effects to the merge point after the window", sel.Sel.Name)
			}
			if methods, ok := emitters[recv]; ok && methods[sel.Sel.Name] {
				report(n, "windowsafe",
					"%s.%s emits tracer/metrics state shared across shards; parallel windows require observability detached, so this call on a worker path either panics or interleaves nondeterministically", recv, sel.Sel.Name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkGlobalWrite(pass, lhs, report)
			}
		case *ast.IncDecStmt:
			checkGlobalWrite(pass, n.X, report)
		}
		return true
	})
}

// checkGlobalWrite reports a write whose root variable is declared at
// package scope.
func checkGlobalWrite(pass *analysis.Pass, lhs ast.Expr, report func(ast.Node, string, string, ...any)) {
	obj := rootObj(pass, lhs)
	if obj == nil {
		return
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() != pass.Pkg.Scope() {
		return
	}
	report(lhs, "windowsafe",
		"write to package-level variable %s from code reachable from a go-launched worker; global state is cross-shard by definition — fold results at the merge point after the window", obj.Name())
}

// rootObj resolves the root variable of an access path (the x of x,
// x.f, x[i], *x), or nil.
func rootObj(pass *analysis.Pass, expr ast.Expr) types.Object {
	for {
		switch e := expr.(type) {
		case *ast.Ident:
			if e.Name == "_" {
				return nil
			}
			return pass.TypesInfo.Uses[e]
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.CallExpr:
			expr = e.Fun
		default:
			return nil
		}
	}
}

// recvString renders a method's receiver type for witness paths, e.g.
// "(*Machine)".
func recvString(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")"
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "(recv)"
}
