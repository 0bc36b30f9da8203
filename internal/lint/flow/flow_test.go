package flow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFunc parses src as the body of the first function declaration in
// a synthetic file and returns the file set, the function, and a graph
// built with the given options.
func parseFunc(t *testing.T, src string, opts Options) (*token.FileSet, *ast.FuncDecl, *Graph) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "flowtest.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fset, fd, New(fd.Body, opts)
		}
	}
	t.Fatalf("no function in %q", src)
	return nil, nil, nil
}

// findCall returns the first call expression whose callee source text
// matches name.
func findCall(t *testing.T, fset *token.FileSet, fd *ast.FuncDecl, name string) *ast.CallExpr {
	t.Helper()
	var found *ast.CallExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = call
				return false
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no call to %s", name)
	}
	return found
}

// findCond returns the atomic condition expression whose source text is
// exactly want (conditions are idents or calls in these tests).
func findCond(t *testing.T, fset *token.FileSet, fd *ast.FuncDecl, g *Graph, want string) ast.Expr {
	t.Helper()
	var found ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && g.TrueSucc(e) != nil {
			if exprString(e) == want {
				found = e
				return false
			}
		}
		return true
	})
	if found == nil {
		t.Fatalf("no atomic condition %q", want)
	}
	return found
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.UnaryExpr:
		return x.Op.String() + exprString(x.X)
	case *ast.BinaryExpr:
		return exprString(x.X) + " " + x.Op.String() + " " + exprString(x.Y)
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	}
	return "?"
}

func TestBranchDominance(t *testing.T) {
	_, fd, g := parseFunc(t, `
func f(c bool) {
	before()
	if c {
		inThen()
	} else {
		inElse()
	}
	after()
}
func before(); func inThen(); func inElse(); func after()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	before := findCall(t, fset, fd, "before")
	then := findCall(t, fset, fd, "inThen")
	els := findCall(t, fset, fd, "inElse")
	after := findCall(t, fset, fd, "after")

	for _, tc := range []struct {
		a, b ast.Node
		want bool
		desc string
	}{
		{before, then, true, "before dominates then-branch"},
		{before, after, true, "before dominates join"},
		{then, after, false, "then-branch does not dominate join"},
		{els, after, false, "else-branch does not dominate join"},
		{then, els, false, "then does not dominate else"},
		{after, then, false, "join does not dominate branch"},
	} {
		if got := g.NodeDominates(d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: NodeDominates = %v, want %v", tc.desc, got, tc.want)
		}
	}
}

func TestTrueEdgeDominance(t *testing.T) {
	// The extension-guard shape: statements inside the if run only
	// when every conjunct held, so they are dominated by the true
	// edge of each atomic condition in the && chain.
	_, fd, g := parseFunc(t, `
func f() {
	if extend() && recheckStart() && recheckWord() {
		accept()
	}
	reject()
}
func extend() bool; func recheckStart() bool; func recheckWord() bool
func accept(); func reject()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	accept := findCall(t, fset, fd, "accept")
	reject := findCall(t, fset, fd, "reject")

	for _, name := range []string{"extend()", "recheckStart()", "recheckWord()"} {
		cond := findCond(t, fset, fd, g, name)
		ts := g.TrueSucc(cond)
		if ts == nil {
			t.Fatalf("no true edge for %s", name)
		}
		if len(ts.Preds) != 1 {
			t.Errorf("%s: true-edge block has %d preds, want 1", name, len(ts.Preds))
		}
		ab, _ := g.BlockOf(accept)
		if !d.Dominates(ts, ab) {
			t.Errorf("%s: true edge should dominate accept()", name)
		}
		rb, _ := g.BlockOf(reject)
		if d.Dominates(ts, rb) {
			t.Errorf("%s: true edge must not dominate reject()", name)
		}
	}
}

func TestShortCircuitAssign(t *testing.T) {
	// ok = a() && b(): b evaluates only under a's true edge, and the
	// assignment itself happens on both paths (at the join).
	_, fd, g := parseFunc(t, `
func f() bool {
	ok := a() && b()
	use()
	return ok
}
func a() bool; func b() bool; func use()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	aCond := findCond(t, fset, fd, g, "a()")
	bCall := findCall(t, fset, fd, "b")
	use := findCall(t, fset, fd, "use")

	if !g.NodeDominates(d, aCond, bCall) {
		t.Errorf("a() should dominate b() in short-circuit chain")
	}
	ts := g.TrueSucc(aCond)
	bb, _ := g.BlockOf(bCall)
	if !d.Dominates(ts, bb) {
		t.Errorf("b() should be dominated by a()'s true edge")
	}
	ub, _ := g.BlockOf(use)
	if d.Dominates(ts, ub) {
		t.Errorf("use() after the assignment must not be dominated by a()'s true edge")
	}
	if !g.NodeDominates(d, aCond, use) {
		t.Errorf("a() itself dominates the post-assign statement")
	}
}

func TestNegationSwapsEdges(t *testing.T) {
	_, fd, g := parseFunc(t, `
func f() {
	if !c() {
		bail()
	}
	proceed()
}
func c() bool; func bail(); func proceed()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	cond := findCond(t, fset, fd, g, "c()")
	bail := findCall(t, fset, fd, "bail")
	bb, _ := g.BlockOf(bail)
	if d.Dominates(g.TrueSucc(cond), bb) {
		t.Errorf("bail() runs on c()'s FALSE edge; true edge must not dominate it")
	}
	if !d.Dominates(g.FalseSucc(cond), bb) {
		t.Errorf("c()'s false edge should dominate bail()")
	}
}

func TestLoopStructure(t *testing.T) {
	_, fd, g := parseFunc(t, `
func f() {
	pre()
	for cond() {
		body()
	}
	post()
}
func pre(); func cond() bool; func body(); func post()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	pre := findCall(t, fset, fd, "pre")
	body := findCall(t, fset, fd, "body")
	post := findCall(t, fset, fd, "post")
	condE := findCond(t, fset, fd, g, "cond()")

	if !g.NodeDominates(d, pre, body) {
		t.Errorf("pre should dominate loop body")
	}
	if !g.NodeDominates(d, condE, body) {
		t.Errorf("loop condition should dominate loop body")
	}
	if g.NodeDominates(d, body, post) {
		t.Errorf("loop body must not dominate the loop exit (zero-iteration path)")
	}
	if !g.NodeDominates(d, condE, post) {
		t.Errorf("loop condition dominates the loop exit")
	}
	// The body block must be able to reach the condition again (back edge).
	bb, _ := g.BlockOf(body)
	cb, _ := g.BlockOf(condE)
	if !reaches(bb, cb) {
		t.Errorf("no back edge from body to condition")
	}
}

func TestRangeLoopAndBreak(t *testing.T) {
	_, fd, g := parseFunc(t, `
func f(xs []int) {
	for range xs {
		if stop() {
			break
		}
		work()
	}
	done()
}
func stop() bool; func work(); func done()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	work := findCall(t, fset, fd, "work")
	done := findCall(t, fset, fd, "done")
	if g.NodeDominates(d, work, done) {
		t.Errorf("work() must not dominate done() (break and zero-iteration paths skip it)")
	}
	wb, _ := g.BlockOf(work)
	db, _ := g.BlockOf(done)
	if !reaches(wb, db) {
		t.Errorf("work() should reach done()")
	}
}

func TestDeferDoesNotDominateAsCall(t *testing.T) {
	// A deferred bump() registers where it syntactically appears, but
	// the call does not execute there: flow records the DeferStmt as a
	// node, and analyzers looking for bump() calls must not find one
	// dominating release(). We model that by checking that the only
	// bump() call in the graph sits inside a DeferStmt node.
	_, fd, g := parseFunc(t, `
func f() {
	defer bump()
	release()
}
func bump(); func release()
`, Options{})
	fset := token.NewFileSet()
	bump := findCall(t, fset, fd, "bump")
	b, idx := g.BlockOf(bump)
	if b == nil {
		t.Fatalf("defer statement not recorded in graph")
	}
	if _, ok := b.Nodes[idx].(*ast.DeferStmt); !ok {
		t.Errorf("bump() resolved to node %T, want *ast.DeferStmt (deferred calls must not appear as executed calls)", b.Nodes[idx])
	}
}

func TestNoReturnTerminatesFlow(t *testing.T) {
	opts := Options{NoReturn: func(call *ast.CallExpr) bool {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.Sel.Name == "Abort"
		}
		return false
	}}
	_, fd, g := parseFunc(t, `
func f(tx T, c bool) {
	if c {
		tx.Abort()
		unreachable()
	}
	after()
}
type T struct{}
func (T) Abort()
func unreachable(); func after()
`, opts)
	d := Dominators(g)
	fset := token.NewFileSet()
	unreach := findCall(t, fset, fd, "unreachable")
	after := findCall(t, fset, fd, "after")
	ub, _ := g.BlockOf(unreach)
	if ub != nil && d.Reachable(ub) {
		t.Errorf("code after a no-return call should be unreachable")
	}
	ab, _ := g.BlockOf(after)
	if ab == nil || !d.Reachable(ab) {
		t.Errorf("the no-abort path must stay reachable")
	}
	// panic gets the same treatment with no Options at all.
	_, fd2, g2 := parseFunc(t, `
func f() {
	panic("x")
	dead()
}
func dead()
`, Options{})
	d2 := Dominators(g2)
	dead := findCall(t, fset, fd2, "dead")
	db, _ := g2.BlockOf(dead)
	if db != nil && d2.Reachable(db) {
		t.Errorf("code after panic should be unreachable")
	}
}

func TestSwitchAndSelect(t *testing.T) {
	_, fd, g := parseFunc(t, `
func f(x int, ch chan int) {
	switch x {
	case 1:
		one()
	case 2:
		two()
	default:
		other()
	}
	mid()
	select {
	case <-ch:
		recv()
	default:
		none()
	}
	end()
}
func one(); func two(); func other(); func mid(); func recv(); func none(); func end()
`, Options{})
	d := Dominators(g)
	fset := token.NewFileSet()
	one := findCall(t, fset, fd, "one")
	mid := findCall(t, fset, fd, "mid")
	recv := findCall(t, fset, fd, "recv")
	end := findCall(t, fset, fd, "end")
	if g.NodeDominates(d, one, mid) {
		t.Errorf("a single switch case must not dominate the join")
	}
	if !g.NodeDominates(d, mid, recv) {
		t.Errorf("mid dominates every select clause")
	}
	if g.NodeDominates(d, recv, end) {
		t.Errorf("a single select clause must not dominate the join")
	}
	if !g.NodeDominates(d, mid, end) {
		t.Errorf("mid dominates the select join")
	}
}

// reaches reports whether b can reach target through successor edges.
func reaches(b, target *Block) bool {
	seen := map[*Block]bool{}
	var walk func(*Block) bool
	walk = func(x *Block) bool {
		if x == target {
			return true
		}
		if seen[x] {
			return false
		}
		seen[x] = true
		for _, s := range x.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	return walk(b)
}
