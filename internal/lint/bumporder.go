package lint

import (
	"go/ast"

	"tmsync/internal/lint/flow"
)

// BumpOrder checks the rollback half of the clock–version protocol: in
// every function annotated //tm:rollback, the Clock.Bump call must
// dominate every orec republish (lock-release) — a republished version
// becomes visible the moment the orec word is stored, and if the clock
// has not yet covered it a concurrent Commit can hand the same version
// out again. A Bump under a defer statement does not count: it runs
// after the republish it was supposed to precede.
var BumpOrder = &Analyzer{
	Name: "bumporder",
	Doc:  "in rollback paths, Clock.Bump must dominate every orec republish",
	Run:  runBumpOrder,
}

func runBumpOrder(p *Pass) {
	pr := newProtocol(p)
	for _, fd := range funcDecls(p) {
		isRollback := groupHasDirective(fd.Doc, DirRollback)

		// Collect republishes and straight-line Bump calls (calls under
		// defer/go/func-literals do not execute in this function's flow).
		var republishes, bumps []*ast.CallExpr
		inspectWithStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if underDeferOrGo(stack) {
				return true
			}
			if pr.isRepublish(call) {
				republishes = append(republishes, call)
			}
			if m, ok := pr.clockMethod(call); ok && m == "Bump" {
				bumps = append(bumps, call)
			}
			return true
		})

		if !isRollback {
			// Backstop: a method literally named Rollback that
			// republishes orecs must opt into the check explicitly, or
			// renames/refactors would silently shed it.
			if fd.Name.Name == "Rollback" && len(republishes) > 0 {
				p.Reportf(fd.Pos(), "method Rollback republishes orec versions but is not annotated //%s", DirRollback)
			}
			continue
		}
		if len(republishes) == 0 {
			continue
		}

		g := flow.New(fd.Body, pr.flowOpts())
		dom := flow.Dominators(g)
		for _, rep := range republishes {
			covered := false
			for _, b := range bumps {
				if g.NodeDominates(dom, b, rep) {
					covered = true
					break
				}
			}
			if !covered {
				p.Reportf(rep.Pos(), "orec republish is not dominated by a Clock.Bump call on the rollback path")
			}
		}
	}
}
