// Package timeunits implements the time-unit confusion analyzer.
//
// Simulated time (eventq.Time) is a bare int64 alias — deliberately, so
// event callbacks need no wrapper closures — which means the type
// checker cannot tell an absolute simulation timestamp from a
// time.Duration converted to int64, or from wall-clock nanoseconds. The
// three units only meet correctly at explicit conversion sites
// (now + int64(d)); anywhere else, mixing them is a unit bug the
// compiler will never see. This analyzer reconstructs the missing units
// with a taint lattice {SimTime, DurRel, Wall} propagated flow-
// sensitively through locals on the function's CFG
// (internal/analysis/ctrlflow), and flags:
//
//   - wall-clock-derived values (time.Now/Since/Until chains,
//     Unix*/Nanoseconds on them, clock.Stopwatch.Elapsed) reaching any
//     simulated-time sink — the scheduling argument of Queue/Sharded
//     Schedule, Timer.Schedule, Machine.Run — or mixed arithmetically
//     with simulated time anywhere;
//   - a purely duration-derived value (int64(d), d.Nanoseconds()) used
//     as the absolute time of a *re*-scheduling sink (Queue/Sharded
//     Schedule, Timer.Schedule): scheduling at t = interval instead of
//     t = now + interval silently schedules in the dead past or the
//     wrong epoch. Machine.Run is exempt from this rule — running a
//     fresh machine "until int64(d)" is the repo's pervasive
//     duration-since-start idiom and is well-defined.
//
// Taint sources: Machine.Now()/Run() results and the int64 parameter of
// a callback literal handed to a timer API are SimTime; Event.At is
// SimTime; int64/eventq.Time conversions of time.Duration values and
// Nanoseconds/Microseconds/Milliseconds/Seconds calls are DurRel (or
// Wall when the duration itself came from the wall clock). Values of
// unknown provenance stay untainted and never fire a rule, so a
// SimTime-typed parameter plus int64(interval) is silent — the analyzer
// only reports when the unit error is provable.
//
// //lint:allow-timeunits marks a site that mixes units deliberately.
package timeunits

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/ctrlflow"
)

// Analyzer is the timeunits analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "timeunits",
	Doc:  "flag wall-clock nanoseconds and bare time.Duration values flowing into simulated-time positions without an explicit conversion site",
	Run:  run,
}

// taint is the unit lattice. unknown (zero) never fires a rule.
type taint uint8

const (
	unknown taint = iota
	simTime       // absolute simulated nanoseconds
	durRel        // relative nanoseconds from a time.Duration
	wall          // derived from the wall clock
)

func (t taint) String() string {
	switch t {
	case simTime:
		return "simulated time"
	case durRel:
		return "a relative time.Duration value"
	case wall:
		return "wall-clock time"
	}
	return "unknown"
}

// absSinks maps receiver type -> method -> index of the absolute-time
// argument. All of them reject wall taint.
var absSinks = map[string]map[string]int{
	"Queue":   {"Schedule": 1},
	"Sharded": {"Schedule": 2},
	"Timer":   {"Schedule": 0},
	"Machine": {"Run": 0},
}

// rescheduleSinks is the subset of absSinks whose argument must not be a
// bare duration: these re-arm timers on machines already deep into a
// run, where t = interval is the dead past.
var rescheduleSinks = map[string]bool{"Queue": true, "Sharded": true, "Timer": true}

// callbackTakers maps receiver type -> methods whose function-literal
// argument receives the firing time: the literal's int64 parameter is a
// SimTime source.
var callbackTakers = map[string]map[string]bool{
	"Machine": {"NewTimer": true, "NewCoreTimer": true},
}

// state maps int64-ish local variables to their unit taint.
type state map[types.Object]taint

func cloneState(s state) state {
	c := make(state, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// joinState merges unit facts: agreement survives, disagreement decays
// to unknown — except that wall contamination on either path survives
// the join (a value that may carry wall time is still unfit for a sink).
func joinState(dst, src state) bool {
	changed := false
	for k, sv := range src {
		dv, ok := dst[k]
		if !ok {
			dst[k] = sv
			changed = true
			continue
		}
		nv := dv
		switch {
		case dv == sv:
		case dv == wall || sv == wall:
			nv = wall
		default:
			nv = unknown
		}
		if nv != dv {
			dst[k] = nv
			changed = true
		}
	}
	return changed
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, timerLits: map[*ast.FuncLit]bool{}}
	// First sweep: find the callback literals handed to timer APIs, so
	// their now-parameters seed SimTime.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv := analysis.RecvTypeName(pass.TypesInfo, sel)
			if methods, ok := callbackTakers[recv]; ok && methods[sel.Sel.Name] {
				for _, arg := range call.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						c.timerLits[lit] = true
					}
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					c.checkFunc(n.Body, nil)
				}
			case *ast.FuncLit:
				c.checkFunc(n.Body, c.entryParams(n))
			}
			return true
		})
	}
	return nil
}

type checker struct {
	pass      *analysis.Pass
	timerLits map[*ast.FuncLit]bool
	reported  map[token.Pos]bool
}

// entryParams seeds the int64 parameters of a timer callback literal
// with SimTime.
func (c *checker) entryParams(lit *ast.FuncLit) state {
	if !c.timerLits[lit] || lit.Type.Params == nil {
		return nil
	}
	s := state{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			obj := c.pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			if b, ok := obj.Type().Underlying().(*types.Basic); ok && b.Kind() == types.Int64 {
				s[obj] = simTime
			}
		}
	}
	return s
}

func (c *checker) checkFunc(body *ast.BlockStmt, entry state) {
	g := ctrlflow.New(body)
	flow := ctrlflow.Dataflow[state]{
		Entry: func() state {
			if entry == nil {
				return state{}
			}
			return cloneState(entry)
		},
		Clone: cloneState,
		Join:  joinState,
		Transfer: func(n ast.Node, s state) {
			c.transfer(n, s, false)
		},
	}
	in := ctrlflow.Solve(g, flow)
	c.reported = map[token.Pos]bool{}
	ctrlflow.Replay(g, in, cloneState, func(n ast.Node, s state) {
		c.transfer(n, s, true)
	})
}

// transfer applies one CFG node: propagate taint through assignments,
// and in the reporting pass check sinks and mixing.
func (c *checker) transfer(n ast.Node, s state, report bool) {
	if report {
		c.checkNode(n, s)
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				c.assign(n.Lhs[i], n.Rhs[i], s)
			}
		} else {
			for _, lhs := range n.Lhs {
				if obj := defOrUse(c.pass, lhs); obj != nil {
					delete(s, obj)
				}
			}
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Names) == len(vs.Values) {
					for i := range vs.Names {
						c.assign(vs.Names[i], vs.Values[i], s)
					}
				}
			}
		}
	case *ast.RangeStmt:
		for _, e := range []ast.Expr{n.Key, n.Value} {
			if obj := defOrUse(c.pass, e); obj != nil {
				delete(s, obj)
			}
		}
	}
}

func (c *checker) assign(lhs, rhs ast.Expr, s state) {
	obj := defOrUse(c.pass, lhs)
	if obj == nil {
		return
	}
	t := c.eval(rhs, s)
	if t == unknown {
		delete(s, obj)
	} else {
		s[obj] = t
	}
}

// checkNode fires the rules on every expression inside one CFG node,
// without descending into nested function literals (they are analyzed as
// their own functions).
func (c *checker) checkNode(n ast.Node, s state) {
	ctrlflow.Inspect(n, func(child ast.Node) bool {
		switch child := child.(type) {
		case *ast.CallExpr:
			c.checkSink(child, s)
		case *ast.BinaryExpr:
			a, b := c.eval(child.X, s), c.eval(child.Y, s)
			if (a == wall && b == simTime) || (a == simTime && b == wall) {
				c.reportf(child.OpPos, "expression mixes wall-clock time with simulated time; simulated timestamps must never meet the wall clock")
			}
		}
		return true
	})
}

// checkSink applies the sink rules to one call.
func (c *checker) checkSink(call *ast.CallExpr, s state) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	recv := analysis.RecvTypeName(c.pass.TypesInfo, sel)
	methods, ok := absSinks[recv]
	if !ok {
		return
	}
	idx, ok := methods[sel.Sel.Name]
	if !ok || idx >= len(call.Args) {
		return
	}
	arg := call.Args[idx]
	switch c.eval(arg, s) {
	case wall:
		c.reportf(arg.Pos(),
			"wall-clock-derived nanoseconds passed as the simulated time of %s.%s; simulated time is a pure function of the event clock", recv, sel.Sel.Name)
	case durRel:
		if rescheduleSinks[recv] {
			c.reportf(arg.Pos(),
				"bare time.Duration value passed as the absolute time of %s.%s; schedule at now + int64(d) (or use the Duration-typed ScheduleAfter/After API) — t = interval alone is the dead past once the clock has advanced", recv, sel.Sel.Name)
		}
	}
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "timeunits", format, args...)
}

// eval computes the unit taint of an expression under the current state.
func (c *checker) eval(e ast.Expr, s state) taint {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return c.eval(e.X, s)
	case *ast.UnaryExpr:
		return c.eval(e.X, s)
	case *ast.Ident:
		if obj := defOrUse(c.pass, e); obj != nil {
			return s[obj]
		}
		return unknown
	case *ast.SelectorExpr:
		// Field access: Event.At is an absolute simulated timestamp.
		if e.Sel.Name == "At" && typeName(c.pass, e.X) == "Event" {
			return simTime
		}
		return unknown
	case *ast.BinaryExpr:
		return binTaint(e.Op, c.eval(e.X, s), c.eval(e.Y, s))
	case *ast.CallExpr:
		return c.evalCall(e, s)
	}
	return unknown
}

func (c *checker) evalCall(call *ast.CallExpr, s state) taint {
	// Conversion? int64(d) / eventq.Time(d) of a Duration is the
	// sanctioned unit-crossing site — the result is a relative value.
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		inner := c.eval(call.Args[0], s)
		if isDuration(c.pass.TypesInfo.Types[call.Args[0]].Type) && isIntegerType(tv.Type) {
			if inner == wall {
				return wall
			}
			return durRel
		}
		return inner
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return unknown
	}
	// Package functions: the wall-clock roots.
	if path, name := pkgFunc(c.pass, sel); path == "time" {
		switch name {
		case "Now", "Since", "Until":
			return wall
		}
		return unknown
	}
	recv := analysis.RecvTypeName(c.pass.TypesInfo, sel)
	switch {
	case recv == "Machine" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Run"):
		return simTime
	case recv == "Stopwatch" && sel.Sel.Name == "Elapsed":
		return wall
	}
	// Methods on wall-tainted values stay wall (UnixNano, Sub, Add...).
	if c.eval(sel.X, s) == wall {
		return wall
	}
	// Duration extractors on clean durations are relative values.
	switch sel.Sel.Name {
	case "Nanoseconds", "Microseconds", "Milliseconds", "Seconds":
		if isDuration(c.pass.TypesInfo.Types[sel.X].Type) {
			return durRel
		}
	}
	return unknown
}

// binTaint is the unit algebra of one binary operator.
func binTaint(op token.Token, a, b taint) taint {
	if a == wall || b == wall {
		return wall
	}
	switch op {
	case token.ADD:
		if a == simTime || b == simTime {
			// base + offset: the conversion-site idiom.
			return simTime
		}
		if a == durRel && b == durRel {
			return durRel
		}
	case token.SUB:
		switch {
		case a == simTime && b == simTime:
			return durRel // elapsed simulated span
		case a == simTime:
			return simTime
		case a == durRel && b == durRel:
			return durRel
		}
	case token.MUL, token.QUO, token.REM:
		if (a == durRel || b == durRel) && a != simTime && b != simTime {
			return durRel
		}
	}
	return unknown
}

func isDuration(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Duration" && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

func isIntegerType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// typeName returns the named-type name of an expression's type,
// stripping one pointer.
func typeName(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// pkgFunc resolves sel to a package-level function (path, name), or
// ("", "").
func pkgFunc(pass *analysis.Pass, sel *ast.SelectorExpr) (string, string) {
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// defOrUse resolves an identifier to its variable object through either
// a use or a := definition.
func defOrUse(pass *analysis.Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
		return obj
	}
	if obj, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return obj
	}
	return nil
}
