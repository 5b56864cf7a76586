package lint

import (
	"go/ast"
	"go/types"
)

func ruleGoroLeak() Rule {
	return Rule{
		Name: "goroleak",
		Doc:  "go statements must tie the goroutine's lifetime to a context.Context, or to a sync.WaitGroup whose Wait the spawning function calls",
		Run:  runGoroLeak,
	}
}

// runGoroLeak enforces the no-leak contract statically: a spawned
// goroutine must have a visible owner that bounds its lifetime. The
// recognized owners are the ones every audited spawn site in the tree
// uses — a context.Context the body watches, or a sync.WaitGroup it
// signals that the spawning function itself joins with Wait. A
// WaitGroup nobody in the spawning function waits on (for example one
// carried by a job received from a channel) owns nothing: the worker
// can outlive every caller. A `go` statement with neither owner has
// nothing that can wait for it or stop it, and the chaos suite's
// goroutine-leak assertions can only catch the schedules a test
// happens to run.
func runGoroLeak(p *Pass) {
	p.In.WithStack([]ast.Node{(*ast.GoStmt)(nil)}, func(n ast.Node, stack []ast.Node) {
		gs := n.(*ast.GoStmt)
		if tiedGoroutine(p, gs.Call, enclosingFunc(stack)) {
			return
		}
		p.Reportf(gs.Pos(), "goroleak",
			"goroutine is not tied to a context.Context or to a sync.WaitGroup this function Waits on; nothing bounds its lifetime — thread an owner, or annotate why it provably terminates")
	})
}

// enclosingFunc returns the body of the innermost function declaration
// or literal on stack (nil at package level).
func enclosingFunc(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// tiedGoroutine reports whether any expression in the spawned call —
// the callee, its arguments, or a function literal's body — is a
// context.Context, or a sync.WaitGroup that body Waits on.
func tiedGoroutine(p *Pass, call *ast.CallExpr, body *ast.BlockStmt) bool {
	var waited map[wgKey]bool
	tied := false
	ast.Inspect(call, func(n ast.Node) bool {
		if tied {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch t := p.Info.TypeOf(e); {
		case t == nil:
		case isNamed(t, "context.Context"):
			tied = true
		case isNamed(t, "sync.WaitGroup"):
			if waited == nil {
				waited = waitedGroups(p, body)
			}
			k, ok := keyOf(p, e)
			tied = ok && waited[k]
		}
		return !tied
	})
	return tied
}

// A wgKey names a WaitGroup expression by its root variable plus the
// field path selected from it ("wg" -> {wg, ""}, "t.wg" -> {t, ".wg"}).
type wgKey struct {
	root types.Object
	path string
}

// keyOf resolves e (through parens, & and *) to a wgKey; ok is false for
// expressions with no stable root variable (calls, index expressions).
func keyOf(p *Pass, e ast.Expr) (wgKey, bool) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return keyOf(p, x.X)
	case *ast.StarExpr:
		return keyOf(p, x.X)
	case *ast.UnaryExpr:
		return keyOf(p, x.X)
	case *ast.Ident:
		obj := p.Info.ObjectOf(x)
		return wgKey{root: obj}, obj != nil
	case *ast.SelectorExpr:
		k, ok := keyOf(p, x.X)
		k.path += "." + x.Sel.Name
		return k, ok
	}
	return wgKey{}, false
}

// waitedGroups collects the WaitGroups body joins with a Wait call,
// skipping spawned goroutines (a Wait inside one joins nothing for the
// spawner).
func waitedGroups(p *Pass, body *ast.BlockStmt) map[wgKey]bool {
	out := map[wgKey]bool{}
	if body == nil {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Wait" {
				return true
			}
			if t := p.Info.TypeOf(sel.X); t == nil || !isNamed(t, "sync.WaitGroup") {
				return true
			}
			if k, ok := keyOf(p, sel.X); ok {
				out[k] = true
			}
		}
		return true
	})
	return out
}

// isNamed reports whether t, or the type t points to, is the named type
// "pkgpath.Name".
func isNamed(t types.Type, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path()+"."+named.Obj().Name() == name
}
