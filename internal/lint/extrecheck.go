package lint

import (
	"go/ast"
	"go/token"

	"tmsync/internal/lint/flow"
)

// ExtRecheck checks the acceptance half of timestamp extension. A
// successful tryExtend proves the read set is valid at the *new* start
// time, but says nothing about the sample in hand: the extended start
// may still predate the sampled version, and the orec may have moved
// while the extension validated. Any value accepted on the extension-success path must
// therefore be dominated by BOTH a `ver <= tx.Start` recheck and an
// orec-word recheck (word equality implies no intervening commit,
// because versions strictly increase across lock cycles).
//
// Extension routines are identified by //tm:extend on their declaration
// (or inline at the call site), and their success must be branched on
// directly — typically as a conjunct in the read's guard chain.
var ExtRecheck = &Analyzer{
	Name: "extrecheck",
	Doc:  "values accepted after timestamp extension need ver<=Start and orec-word rechecks",
	Run:  runExtRecheck,
}

func runExtRecheck(p *Pass) {
	pr := newProtocol(p)
	for _, fd := range funcDecls(p) {
		var extends []*ast.CallExpr
		inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && !underDeferOrGo(stack) && pr.isExtendCall(call) {
				extends = append(extends, call)
			}
			return true
		})
		if len(extends) == 0 {
			continue
		}
		g := flow.New(fd.Body, pr.flowOpts())
		dom := flow.Dominators(g)
		for _, ext := range extends {
			checkExtension(p, pr, g, dom, ext)
		}
	}
}

// checkExtension verifies one extension call's success region.
func checkExtension(p *Pass, pr *protocol, g *flow.Graph, dom *flow.DomTree, ext *ast.CallExpr) {
	succ := g.TrueSucc(ext)
	if succ == nil || !dom.Reachable(succ) {
		p.Reportf(ext.Pos(), "timestamp-extension result is not branched on; successful extension must directly guard its accepts")
		return
	}

	// The success region: every reachable block dominated by the
	// extension's true edge.
	var region []*flow.Block
	for _, b := range g.Blocks {
		if dom.Reachable(b) && dom.Dominates(succ, b) {
			region = append(region, b)
		}
	}

	// Find the recheck shapes inside the region and their passing edges.
	var startEdges, wordEdges []*flow.Block
	var accepts []ast.Node
	for _, b := range region {
		for _, n := range b.Nodes {
			if e, ok := n.(ast.Expr); ok {
				if edge := pr.startRecheckEdge(g, e); edge != nil {
					startEdges = append(startEdges, edge)
					continue
				}
				if edge := pr.wordRecheckEdge(g, e); edge != nil {
					wordEdges = append(wordEdges, edge)
					continue
				}
			}
			if acceptsValue(pr, n) {
				accepts = append(accepts, n)
			}
		}
	}

	if len(startEdges) == 0 {
		p.Reportf(ext.Pos(), "value accepted after timestamp extension without a ver <= tx.Start recheck")
	}
	if len(wordEdges) == 0 {
		p.Reportf(ext.Pos(), "value accepted after timestamp extension without an orec-word recheck")
	}

	// When the shapes exist, every accept must sit under both passing
	// edges; report escapes individually.
	dominatedByAny := func(edges []*flow.Block, n ast.Node) bool {
		nb, _ := g.BlockOf(n)
		if nb == nil {
			return false
		}
		for _, e := range edges {
			if dom.Dominates(e, nb) {
				return true
			}
		}
		return false
	}
	for _, acc := range accepts {
		if len(startEdges) > 0 && !dominatedByAny(startEdges, acc) {
			p.Reportf(acc.Pos(), "runs on extension success but is not guarded by the ver <= tx.Start recheck")
		}
		if len(wordEdges) > 0 && !dominatedByAny(wordEdges, acc) {
			p.Reportf(acc.Pos(), "runs on extension success but is not guarded by the orec-word recheck")
		}
	}
}

// startRecheckEdge recognizes the `ver <= tx.Start` comparison (in any
// of its spellings) and returns the block entered when it passes.
func (pr *protocol) startRecheckEdge(g *flow.Graph, e ast.Expr) *flow.Block {
	be, ok := e.(*ast.BinaryExpr)
	if !ok {
		return nil
	}
	left := mentionsName(be.X, "Start")
	right := mentionsName(be.Y, "Start")
	switch be.Op {
	case token.LEQ: // ver <= tx.Start passes on true
		if right {
			return g.TrueSucc(be)
		}
	case token.GEQ: // tx.Start >= ver passes on true
		if left {
			return g.TrueSucc(be)
		}
	case token.GTR: // ver > tx.Start passes on false
		if right {
			return g.FalseSucc(be)
		}
	case token.LSS: // tx.Start < ver passes on false
		if left {
			return g.FalseSucc(be)
		}
	}
	return nil
}

// wordRecheckEdge recognizes the orec-word equality recheck — a
// comparison with an orec Get call on one side — and returns the block
// entered when the word is unchanged.
func (pr *protocol) wordRecheckEdge(g *flow.Graph, e ast.Expr) *flow.Block {
	be, ok := e.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return nil
	}
	hasGet := false
	for _, side := range []ast.Expr{be.X, be.Y} {
		for _, c := range callsIn(side) {
			if m, ok := pr.orecMethod(c); ok && m == "Get" {
				hasGet = true
			}
		}
	}
	if !hasGet {
		return nil
	}
	if be.Op == token.EQL {
		return g.TrueSucc(be)
	}
	return g.FalseSucc(be)
}

// acceptsValue reports whether a graph node is a statement that uses or
// escapes a value on the success path — anything other than the recheck
// comparisons themselves, aborts, and clock notifications.
func acceptsValue(pr *protocol, n ast.Node) bool {
	switch s := n.(type) {
	case *ast.ReturnStmt:
		return len(s.Results) > 0
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt:
		return true
	case *ast.ExprStmt:
		call, ok := ast.Unparen(s.X).(*ast.CallExpr)
		if !ok {
			return false
		}
		if pr.isNoReturn(call) {
			return false
		}
		if m, ok := pr.clockMethod(call); ok && m == "Bump" {
			return false
		}
		return true
	}
	return false
}
