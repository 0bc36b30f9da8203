package lint

import (
	"go/ast"
	"go/types"

	"tmsync/internal/lint/flow"
)

// CommitStamp checks the publication half of the commit protocol: the
// timestamp returned by Clock.Commit is the only version a committing
// transaction may publish. Every orec Set that runs after writeback
// must be dominated by the Clock.Commit call, and its version argument
// must derive (through local assignments) from Commit's result — a
// version derived from an earlier Now() sample can be at or below a
// concurrently-published version, silently un-serializing the commit.
//
// Scope: functions that call Clock.Commit. Rollback republishes (which
// intentionally publish bumped old versions) live in functions without
// a Commit call and are bumporder's responsibility.
var CommitStamp = &Analyzer{
	Name: "commitstamp",
	Doc:  "post-writeback orec publishes must carry the Clock.Commit timestamp",
	Run:  runCommitStamp,
}

func runCommitStamp(p *Pass) {
	pr := newProtocol(p)
	for _, fd := range funcDecls(p) {
		// Gather Clock.Commit / Clock.Now assignment roots and all orec
		// publishes in straight-line flow.
		var commitStmts []ast.Node
		stampRoots := map[types.Object]bool{}
		nowRoots := map[types.Object]bool{}
		var publishes []*ast.CallExpr
		inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			if underDeferOrGo(stack) {
				return true
			}
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Rhs) == 1 {
				if call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr); ok {
					if m, ok := pr.clockMethod(call); ok {
						switch m {
						case "Commit":
							commitStmts = append(commitStmts, as)
							if len(as.Lhs) > 0 {
								if obj := lhsObj(p, as.Lhs[0]); obj != nil {
									stampRoots[obj] = true
								}
							}
						case "Now":
							if len(as.Lhs) > 0 {
								if obj := lhsObj(p, as.Lhs[0]); obj != nil {
									nowRoots[obj] = true
								}
							}
						}
					}
				}
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if m, ok := pr.clockMethod(call); ok && m == "Commit" {
					if _, isAssign := findAssignParent(stack); !isAssign {
						commitStmts = append(commitStmts, call)
					}
				}
				if m, ok := pr.orecMethod(call); ok && m == "Set" {
					publishes = append(publishes, call)
				} else if p.DirectiveNear(call.Pos(), DirRepublish) {
					publishes = append(publishes, call)
				}
			}
			return true
		})
		if len(commitStmts) == 0 || len(publishes) == 0 {
			continue
		}

		// Propagate stamp- and Now-derivation through local assignments
		// to a fixpoint: `end2 := end + 1` keeps end2 stamp-derived.
		propagate := func(roots map[types.Object]bool) {
			for changed := true; changed; {
				changed = false
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false
					}
					as, ok := n.(*ast.AssignStmt)
					if !ok || len(as.Rhs) == 0 {
						return true
					}
					rhsDerived := false
					for _, r := range as.Rhs {
						if mentionsObj(p, r, roots) {
							rhsDerived = true
						}
					}
					if !rhsDerived {
						return true
					}
					for _, l := range as.Lhs {
						if obj := lhsObj(p, l); obj != nil && !roots[obj] {
							roots[obj] = true
							changed = true
						}
					}
					return true
				})
			}
		}
		propagate(stampRoots)
		propagate(nowRoots)

		g := flow.New(fd.Body, pr.flowOpts())
		dom := flow.Dominators(g)
		for _, pub := range publishes {
			dominated := false
			for _, cs := range commitStmts {
				if g.NodeDominates(dom, cs, pub) {
					dominated = true
					break
				}
			}
			if !dominated {
				p.Reportf(pub.Pos(), "orec publish precedes the Clock.Commit stamp")
				continue
			}
			stamped := false
			fromNow := false
			for _, arg := range pub.Args {
				if mentionsObj(p, arg, stampRoots) {
					stamped = true
				}
				if mentionsObj(p, arg, nowRoots) {
					fromNow = true
				}
			}
			if !stamped {
				if fromNow {
					p.Reportf(pub.Pos(), "orec publish uses a version derived from a stale Clock.Now sample instead of the Clock.Commit timestamp")
				} else {
					p.Reportf(pub.Pos(), "orec publish does not derive from the Clock.Commit timestamp")
				}
			}
		}
	}
}

// lhsObj resolves the object an assignment target binds or updates.
func lhsObj(p *Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := p.Info.Defs[x]; obj != nil {
			return obj
		}
		return p.Info.Uses[x]
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	}
	return nil
}

// mentionsObj reports whether e's subtree references any object in set.
func mentionsObj(p *Pass, e ast.Expr, set map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil && set[obj] {
				found = true
			}
		}
		return true
	})
	return found
}

// findAssignParent reports whether the innermost statement ancestor is an
// assignment (the call's result is being bound).
func findAssignParent(stack []ast.Node) (*ast.AssignStmt, bool) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			return s, true
		case ast.Stmt:
			return nil, false
		}
	}
	return nil, false
}
