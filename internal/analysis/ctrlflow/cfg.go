// Package ctrlflow builds intraprocedural control-flow graphs over the
// AST and solves forward dataflow problems on them. It is the engine
// under the flow-sensitive timeunits analyzer: where the original
// lbos-lint checks match one statement at a time, timeunits needs to
// know what *must* or *may* have happened on every path reaching a
// statement — a wall-clock reading assigned on one branch and passed as
// a simulated time after the join, a duration-typed value laundered
// through a local before being passed as an absolute time.
//
// The package is stdlib-only and deliberately mirrors the shape of
// golang.org/x/tools/go/cfg plus a small generic worklist solver, so the
// analyzers could be rehosted on the real ctrlflow pass of a vet
// multichecker without structural change.
//
// A CFG is a set of basic blocks. Block.Nodes holds the statements and
// control expressions of the block in execution order: leaf statements
// appear whole (assignments, calls, returns), and compound statements
// are decomposed — an if contributes its condition expression to the
// block that branches, a range statement contributes itself to its head
// block so transfer functions can see the key/value bindings. Function
// literals nested in a statement are NOT expanded; analyzers analyze
// each literal as its own function (see Inspect).
//
// Calls that provably do not return — panic, os.Exit, log.Fatal*, and
// the testing.TB Fatal/Skip family — terminate their block with no
// successors, so state on those paths never reaches the exit join. This
// matters in practice: without it, every `if err != nil { t.Fatal(err) }`
// guard would smear a spurious "maybe" state over the code below it.
package ctrlflow

import (
	"go/ast"
	"go/token"
)

// A CFG is the control-flow graph of one function body.
type CFG struct {
	// Blocks lists every block in creation order; Blocks[0] is Entry.
	// Unreachable blocks (code after a return) are present but have no
	// predecessors, and the solver never visits them.
	Blocks []*Block
	Entry  *Block
	// Exit is the single virtual exit block. It holds no nodes; a block
	// whose successor list contains Exit ends the function, either at an
	// explicit return (its last node is an *ast.ReturnStmt) or by
	// falling off the end of the body.
	Exit *Block
}

// A Block is a maximal straight-line sequence of nodes.
type Block struct {
	Index int
	Kind  string // human-readable origin, e.g. "for.head", "if.then"
	Nodes []ast.Node
	Succs []*Block
}

// New builds the CFG for one function body.
func New(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = &Block{Index: -1, Kind: "exit"}
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edgeTo(b.cfg.Exit)
	return b.cfg
}

type builder struct {
	cfg      *builderCFG
	cur      *Block // nil while the current point is unreachable
	targets  *targets
	labels   map[string]*lblock
	curLabel string // label attached to the next loop/switch/select
	fallt    *Block // fallthrough target of the current case clause
}

// builderCFG is an alias so the builder reads naturally.
type builderCFG = CFG

// targets is the stack of enclosing break/continue destinations.
type targets struct {
	outer *targets
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

// lblock records the blocks a label can jump to.
type lblock struct {
	start *Block // goto target: the labeled statement itself
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// add appends a node to the current block, materializing an unreachable
// block if control cannot get here (dead code still parses and solves).
func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// edgeTo links the current block to dst, if the current point is live.
func (b *builder) edgeTo(dst *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, dst)
	}
}

// live ensures there is a current block to branch from.
func (b *builder) live() *Block {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	return b.cur
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the statement that owns it.
func (b *builder) takeLabel() string {
	l := b.curLabel
	b.curLabel = ""
	return l
}

func (b *builder) labeled(name string) *lblock {
	if b.labels == nil {
		b.labels = map[string]*lblock{}
	}
	lb := b.labels[name]
	if lb == nil {
		lb = &lblock{start: b.newBlock("label." + name)}
		b.labels[name] = lb
	}
	return lb
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labeled(s.Label.Name)
		b.edgeTo(lb.start)
		b.cur = lb.start
		b.curLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.curLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		cond := b.live()
		done := b.newBlock("if.done")
		then := b.newBlock("if.then")
		cond.Succs = append(cond.Succs, then)
		b.cur = then
		b.stmt(s.Body)
		b.edgeTo(done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			cond.Succs = append(cond.Succs, els)
			b.cur = els
			b.stmt(s.Else)
			b.edgeTo(done)
		} else {
			cond.Succs = append(cond.Succs, done)
		}
		b.cur = done

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		head := b.newBlock("for.head")
		b.edgeTo(head)
		b.cur = head
		if s.Cond != nil {
			b.add(s.Cond)
		}
		head = b.live() // cond may have materialized nothing new
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		var post *Block
		cont := head
		if s.Post != nil {
			post = b.newBlock("for.post")
			cont = post
		}
		head.Succs = append(head.Succs, body)
		if s.Cond != nil {
			head.Succs = append(head.Succs, done)
		}
		b.targets = &targets{outer: b.targets, label: label, brk: done, cont: cont}
		b.cur = body
		b.stmt(s.Body)
		b.edgeTo(cont)
		b.targets = b.targets.outer
		if post != nil {
			b.cur = post
			b.add(s.Post)
			b.edgeTo(head)
		}
		b.cur = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock("range.head")
		b.edgeTo(head)
		// The range statement itself lives in the head block: transfer
		// functions see the key/value bindings once per entry.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		head.Succs = append(head.Succs, body, done)
		b.targets = &targets{outer: b.targets, label: label, brk: done, cont: head}
		b.cur = body
		b.stmt(s.Body)
		b.edgeTo(head)
		b.targets = b.targets.outer
		b.cur = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, true, func(cc *ast.CaseClause) {
			for _, e := range cc.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, false, func(cc *ast.CaseClause) {})

	case *ast.SelectStmt:
		label := b.takeLabel()
		sel := b.live()
		done := b.newBlock("select.done")
		b.targets = &targets{outer: b.targets, label: label, brk: done}
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			blk := b.newBlock("select.case")
			sel.Succs = append(sel.Succs, blk)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			b.stmtList(cc.Body)
			b.edgeTo(done)
		}
		b.targets = b.targets.outer
		b.cur = done

	case *ast.ReturnStmt:
		b.add(s)
		b.edgeTo(b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			for t := b.targets; t != nil; t = t.outer {
				if s.Label == nil || t.label == s.Label.Name {
					b.edgeTo(t.brk)
					break
				}
			}
		case token.CONTINUE:
			for t := b.targets; t != nil; t = t.outer {
				if t.cont != nil && (s.Label == nil || t.label == s.Label.Name) {
					b.edgeTo(t.cont)
					break
				}
			}
		case token.GOTO:
			b.edgeTo(b.labeled(s.Label.Name).start)
		case token.FALLTHROUGH:
			b.edgeTo(b.fallt)
		}
		b.cur = nil

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := s.X.(*ast.CallExpr); ok && noReturn(call) {
			b.cur = nil
		}

	default:
		// Assign, IncDec, Send, Decl, Go, Defer, Empty: straight-line.
		b.add(s)
	}
}

// switchBody wires the clause blocks of a switch or type switch. The
// preceding tag/assign nodes already sit in the current block, which
// becomes the branch point.
func (b *builder) switchBody(label string, body *ast.BlockStmt, allowFallthrough bool, caseExprs func(*ast.CaseClause)) {
	branch := b.live()
	done := b.newBlock("switch.done")
	b.targets = &targets{outer: b.targets, label: label, brk: done}
	clauses := body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, clause := range clauses {
		blocks[i] = b.newBlock("switch.case")
		branch.Succs = append(branch.Succs, blocks[i])
		if clause.(*ast.CaseClause).List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		branch.Succs = append(branch.Succs, done)
	}
	for i, clause := range clauses {
		cc := clause.(*ast.CaseClause)
		b.cur = blocks[i]
		caseExprs(cc)
		if allowFallthrough && i+1 < len(blocks) {
			b.fallt = blocks[i+1]
		} else {
			b.fallt = nil
		}
		b.stmtList(cc.Body)
		b.edgeTo(done)
	}
	b.fallt = nil
	b.targets = b.targets.outer
	b.cur = done
}

// noReturn reports whether a call statement provably never returns:
// panic, os.Exit, log.Fatal*, and the testing.TB Fatal/Skip family.
// This is syntactic on purpose — the builder has no type information —
// and the method-name set is narrow enough that a false "terminates"
// would take a user method named FailNow doing something else entirely.
func noReturn(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow":
			return true
		case "Exit":
			id, ok := fun.X.(*ast.Ident)
			return ok && id.Name == "os"
		case "Fatalln":
			return true
		}
	}
	return false
}

// Inspect walks n like ast.Inspect but does not descend into the bodies
// of nested function literals: a literal runs at some other time on some
// other path, so its statements must not be folded into the enclosing
// function's flow state. The literal node itself is still visited (a
// handle captured by a closure is a use of the handle).
func Inspect(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(child ast.Node) bool {
		if !f(child) {
			return false
		}
		if lit, ok := child.(*ast.FuncLit); ok {
			// Visit the type (params may reference values) but skip the
			// body's statements.
			ast.Inspect(lit.Type, f)
			return false
		}
		return true
	})
}
