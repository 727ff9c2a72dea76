package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

func init() {
	Register(&Analyzer{
		Name: "goroutineguard",
		Doc:  "functions that launch goroutines must hold a completion mechanism (sync.WaitGroup or channel) in scope",
		Run:  runGoroutineGuard,
	})
}

// runGoroutineGuard flags every `go` statement whose nearest enclosing
// named function shows no sign of waiting for the goroutine: no
// sync.WaitGroup value and no channel operation anywhere in that
// function's body (goroutine bodies included — the wait protocol spans
// both sides). This is a structural check, not a proof of correctness,
// but it catches the classic fire-and-forget leak in parallel kernels
// like the Dijkstra tree fan-out.
func runGoroutineGuard(p *Pass) {
	for _, fi := range p.Inspector.Funcs() {
		// Function literals are inspected through their enclosing
		// declaration so the wait mechanism may live in the parent scope.
		if fi.Decl == nil || fi.Decl.Body == nil {
			continue
		}
		var gos []*ast.GoStmt
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				gos = append(gos, g)
			}
			return true
		})
		if len(gos) == 0 {
			continue
		}
		if hasCompletionMechanism(p, fi.Decl.Body) {
			continue
		}
		for _, g := range gos {
			p.Reportf(g.Pos(), "goroutine launched in %s without a completion mechanism (sync.WaitGroup or channel) in scope", fi.Decl.Name.Name)
		}
	}
}

// hasCompletionMechanism reports whether the body mentions a
// sync.WaitGroup-typed value or performs any channel operation (send,
// receive, close, range-over-channel, or select).
func hasCompletionMechanism(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectStmt:
			found = true
		case *ast.SendStmt:
			found = true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if isChan(p.TypeOf(n.X)) {
				found = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
				if _, builtin := p.ObjectOf(id).(*types.Builtin); builtin {
					found = true
				}
			}
		case *ast.Ident:
			if isWaitGroup(p.TypeOf(n)) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "WaitGroup" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
