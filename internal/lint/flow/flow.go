// Package flow provides the control-flow substrate for tmlint's
// flow-sensitive analyzers: per-function control-flow graphs built
// from go/ast, and dominator trees over them. Like the rest of
// internal/lint it is built on the standard library alone, mirroring
// the shape of golang.org/x/tools/go/cfg without depending on it.
//
// The CFG is built at a granularity chosen for the clock–version
// protocol checks: short-circuit conditions (`a && b && c` chains, the
// shape of every timestamp-extension guard in the engines) are
// decomposed so each atomic conjunct evaluates in its own block, and
// every atomic condition gets dedicated single-predecessor true/false
// edge blocks. "Dominated by the true edge of condition C" — the core
// question behind "was this value accepted only after a successful
// recheck?" — is then an ordinary block-domination query against
// TrueSucc(C).
//
// Deliberate approximations, chosen to be conservative for the
// analyzers built on top:
//
//   - defer statements register at their syntactic position but their
//     calls are NOT treated as executing there (nor anywhere): a
//     deferred Clock.Bump does not dominate anything, which is exactly
//     right — it runs after the republish it was supposed to precede.
//   - goto is modeled as an edge to Exit (flow we do not track). The
//     repo has no gotos; a fixture that adds one loses precision, not
//     soundness, for dominance-based "must happen before" claims.
//   - function literals are opaque: their bodies belong to their own
//     graphs, never to the enclosing function's.
package flow

import (
	"go/ast"
	"go/token"
)

// A Block is one straight-line run of nodes. Nodes are the statements
// and atomic condition expressions that execute, in order, when the
// block runs. Compound statements never appear as nodes; their pieces
// are distributed across blocks.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block

	trueSucc  map[ast.Expr]*Block
	falseSucc map[ast.Expr]*Block
	owner     map[ast.Node]*Block
}

// Options configures graph construction.
type Options struct {
	// NoReturn reports whether a call terminates the enclosing
	// function abnormally (panic-like). Calls to panic itself are
	// always treated as no-return.
	NoReturn func(*ast.CallExpr) bool
}

// New builds the control-flow graph of body.
func New(body *ast.BlockStmt, opts Options) *Graph {
	g := &Graph{
		trueSucc:  make(map[ast.Expr]*Block),
		falseSucc: make(map[ast.Expr]*Block),
		owner:     make(map[ast.Node]*Block),
	}
	b := &builder{g: g, opts: opts}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmt(body)
	b.link(b.cur, g.Exit)
	return g
}

// TrueSucc returns the dedicated block entered when the atomic
// condition e evaluates true, or nil when e was not an atomic branch
// condition in this graph. The block has exactly one predecessor (the
// block evaluating e), so "dominated by TrueSucc(e)" means "executes
// only after e held".
func (g *Graph) TrueSucc(e ast.Expr) *Block { return g.trueSucc[e] }

// FalseSucc is TrueSucc's false-edge counterpart.
func (g *Graph) FalseSucc(e ast.Expr) *Block { return g.falseSucc[e] }

// BlockOf returns the block owning the smallest graph node that
// contains n (which may be n itself), along with that node's index in
// the block. It returns (nil, -1) when n is not part of any block —
// e.g. a node inside a function literal, or inside a declaration the
// builder never visited.
func (g *Graph) BlockOf(n ast.Node) (*Block, int) {
	var best ast.Node
	var bestBlock *Block
	for owned, blk := range g.owner {
		if owned.Pos() <= n.Pos() && n.End() <= owned.End() {
			if best == nil || (best.Pos() <= owned.Pos() && owned.End() <= best.End()) {
				best, bestBlock = owned, blk
			}
		}
	}
	if bestBlock == nil {
		return nil, -1
	}
	for i, m := range bestBlock.Nodes {
		if m == best {
			return bestBlock, i
		}
	}
	return nil, -1
}

// NodeDominates reports whether node a is executed before node b on
// every path that reaches b: same block and earlier, or a's block
// strictly dominating b's. Nodes outside the graph (or unreachable)
// never dominate and are never dominated.
func (g *Graph) NodeDominates(d *DomTree, a, b ast.Node) bool {
	ba, ia := g.BlockOf(a)
	bb, ib := g.BlockOf(b)
	if ba == nil || bb == nil || !d.Reachable(ba) || !d.Reachable(bb) {
		return false
	}
	if ba == bb {
		return ia < ib
	}
	return d.Dominates(ba, bb)
}

type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames
}

type builder struct {
	g     *Graph
	cur   *Block
	opts  Options
	loops []loopFrame
	label string // pending label for the next for/range/switch/select
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.g.Blocks)}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) link(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// add appends n to the current block and records ownership.
func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
	b.g.owner[n] = b.cur
}

// terminate ends the current flow: subsequent statements land in a
// fresh block with no predecessors (unreachable until something links
// to it — e.g. a label, which we do not model, so it simply stays
// unreachable).
func (b *builder) terminate() {
	b.cur = b.newBlock()
}

func (b *builder) takeLabel() string {
	l := b.label
	b.label = ""
	return l
}

func (b *builder) noReturn(call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	return b.opts.NoReturn != nil && b.opts.NoReturn(call)
}

// hasShortCircuit reports whether e branches via && or || (possibly
// under parentheses or !).
func hasShortCircuit(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		return x.Op == token.LAND || x.Op == token.LOR
	case *ast.UnaryExpr:
		return x.Op == token.NOT && hasShortCircuit(x.X)
	}
	return false
}

// cond evaluates e for control flow in the current block, returning
// dedicated true- and false-edge blocks. Short-circuit operators are
// decomposed; every atomic condition becomes a node with its own edge
// blocks.
func (b *builder) cond(e ast.Expr) (t, f *Block) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			t1, f1 := b.cond(x.X)
			b.cur = t1
			t2, f2 := b.cond(x.Y)
			f := b.newBlock()
			b.link(f1, f)
			b.link(f2, f)
			return t2, f
		case token.LOR:
			t1, f1 := b.cond(x.X)
			b.cur = f1
			t2, f2 := b.cond(x.Y)
			t := b.newBlock()
			b.link(t1, t)
			b.link(t2, t)
			return t, f2
		}
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			t, f := b.cond(x.X)
			return f, t
		}
	}
	atom := ast.Unparen(e)
	b.add(atom)
	t = b.newBlock()
	f = b.newBlock()
	b.link(b.cur, t)
	b.link(b.cur, f)
	b.g.trueSucc[atom] = t
	b.g.falseSucc[atom] = f
	return t, f
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			b.stmt(st)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		t, f := b.cond(s.Cond)
		b.cur = t
		b.stmt(s.Body)
		thenEnd := b.cur
		elseEnd := f
		if s.Else != nil {
			b.cur = f
			b.stmt(s.Else)
			elseEnd = b.cur
		}
		join := b.newBlock()
		b.link(thenEnd, join)
		b.link(elseEnd, join)
		b.cur = join
	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		head := b.newBlock()
		b.link(b.cur, head)
		b.cur = head
		var bodyEntry, after *Block
		if s.Cond != nil {
			bodyEntry, after = b.cond(s.Cond)
		} else {
			bodyEntry = b.newBlock()
			b.link(head, bodyEntry)
			after = b.newBlock() // break target only
		}
		post := b.newBlock()
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: post})
		b.cur = bodyEntry
		b.stmt(s.Body)
		b.loops = b.loops[:len(b.loops)-1]
		b.link(b.cur, post)
		b.cur = post
		if s.Post != nil {
			b.stmt(s.Post)
		}
		b.link(b.cur, head)
		b.cur = after
	case *ast.RangeStmt:
		label := b.takeLabel()
		head := b.newBlock()
		b.link(b.cur, head)
		b.cur = head
		// The ranged-over expression (not the body) evaluates at the
		// head, once per iteration decision.
		b.add(s.X)
		bodyEntry := b.newBlock()
		after := b.newBlock()
		b.link(head, bodyEntry)
		b.link(head, after)
		b.loops = append(b.loops, loopFrame{label: label, breakTo: after, continueTo: head})
		b.cur = bodyEntry
		b.stmt(s.Body)
		b.loops = b.loops[:len(b.loops)-1]
		b.link(b.cur, head)
		b.cur = after
	case *ast.SwitchStmt:
		b.caseSwitch(s.Init, s.Tag, s.Body)
	case *ast.TypeSwitchStmt:
		b.caseSwitch(s.Init, s.Assign, s.Body)
	case *ast.SelectStmt:
		label := b.takeLabel()
		join := b.newBlock()
		head := b.cur
		b.loops = append(b.loops, loopFrame{label: label, breakTo: join})
		for _, cl := range s.Body.List {
			cc := cl.(*ast.CommClause)
			entry := b.newBlock()
			b.link(head, entry)
			b.cur = entry
			if cc.Comm != nil {
				b.stmt(cc.Comm)
			}
			for _, st := range cc.Body {
				b.stmt(st)
			}
			b.link(b.cur, join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			// An empty select blocks forever.
			b.terminate()
			return
		}
		b.cur = join
	case *ast.ReturnStmt:
		b.add(s)
		b.link(b.cur, b.g.Exit)
		b.terminate()
	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if fr := b.findFrame(s, false); fr != nil {
				b.link(b.cur, fr.breakTo)
			}
			b.terminate()
		case token.CONTINUE:
			if fr := b.findFrame(s, true); fr != nil {
				b.link(b.cur, fr.continueTo)
			}
			b.terminate()
		case token.GOTO:
			// Unmodeled flow: conservatively an edge to Exit.
			b.link(b.cur, b.g.Exit)
			b.terminate()
		case token.FALLTHROUGH:
			// Handled structurally by caseSwitch; reaching here means
			// a stray fallthrough — ignore.
		}
	case *ast.LabeledStmt:
		b.label = s.Label.Name
		b.stmt(s.Stmt)
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && b.noReturn(call) {
			b.add(s)
			b.link(b.cur, b.g.Exit)
			b.terminate()
			return
		}
		b.add(s)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 && hasShortCircuit(s.Rhs[0]) {
			// Decompose the short-circuit RHS so conjuncts evaluated
			// only under earlier conjuncts get their own blocks, then
			// record the binding itself at the join.
			t, f := b.cond(s.Rhs[0])
			join := b.newBlock()
			b.link(t, join)
			b.link(f, join)
			b.cur = join
		}
		b.add(s)
	case *ast.EmptyStmt:
		// nothing
	default:
		// DeclStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt, ...
		b.add(s)
	}
}

// caseSwitch builds expression and type switches: every clause branches
// from the head; fallthrough links a clause body to the next clause's
// body, skipping its case expressions.
func (b *builder) caseSwitch(init ast.Stmt, tag ast.Node, body *ast.BlockStmt) {
	label := b.takeLabel()
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	head := b.cur
	join := b.newBlock()
	b.loops = append(b.loops, loopFrame{label: label, breakTo: join})

	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		if cc, ok := cl.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	entries := make([]*Block, len(clauses))
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		entries[i] = b.newBlock()
		bodies[i] = b.newBlock()
		b.link(head, entries[i])
		b.link(entries[i], bodies[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.link(head, join)
	}
	for i, cc := range clauses {
		b.cur = entries[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.cur = bodies[i]
		fell := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				if i+1 < len(bodies) {
					b.link(b.cur, bodies[i+1])
					fell = true
				}
				break
			}
			b.stmt(st)
		}
		if !fell {
			b.link(b.cur, join)
		} else {
			b.terminate()
		}
	}
	b.loops = b.loops[:len(b.loops)-1]
	b.cur = join
}

// findFrame resolves a break/continue target, honoring labels.
// needContinue restricts to loop frames.
func (b *builder) findFrame(s *ast.BranchStmt, needContinue bool) *loopFrame {
	want := ""
	if s.Label != nil {
		want = s.Label.Name
	}
	for i := len(b.loops) - 1; i >= 0; i-- {
		fr := &b.loops[i]
		if needContinue && fr.continueTo == nil {
			continue
		}
		if want == "" || fr.label == want {
			return fr
		}
	}
	return nil
}
