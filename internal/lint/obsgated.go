package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// tickPackages names the packages whose every function is assumed to be
// on (or one call from) the per-cycle tick path. Matched by package
// name so fixture packages can stand in for the real packages.
var tickPackages = map[string]bool{
	"cpu": true, "core": true, "sim": true, "cache": true,
	"tlb": true, "coherence": true, "snoop": true, "mem": true,
	"interconnect": true,
}

// obsPackages names the packages whose methods are observability
// entry points needing a gate.
var obsPackages = map[string]bool{"trace": true, "obs": true}

// exempt are observability methods that are themselves guards or are
// guaranteed allocation-free when disabled.
var exempt = map[string]bool{"Enabled": true, "String": true}

// obsGated enforces the hot-path gating rule: observability calls
// (trace ring, metrics, spans) inside tick-path packages must be
// dominated by an Enabled() or nil guard, so a disabled scope costs
// nothing on the hot path — no variadic boxing, no closure allocation,
// no map lookup per tick. There is no annotation escape: gate the call.
func obsGated(tg *target) []finding {
	if !tickPackages[tg.pkg.Name()] {
		return nil
	}
	var out []finding
	for _, f := range tg.files {
		inspectWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := obsMethod(tg.info, call)
			if fn == nil || exempt[fn.Name()] {
				return true
			}
			if guarded(stack) {
				return true
			}
			recv := "?"
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				recv = types.ExprString(sel.X)
			}
			out = append(out, finding{call.Pos(), fmt.Sprintf(
				"ungated %s.%s call on the tick path: dominate it with an Enabled() or nil check on %s",
				fn.Pkg().Name(), fn.Name(), recv)})
			return true
		})
	}
	return out
}

// inspectWithStack walks the file like ast.Inspect but hands fn the
// stack of enclosing nodes, outermost first; the visited node is
// stack's last element. Returning false prunes the subtree.
func inspectWithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		if !fn(n, stack) {
			stack = stack[:len(stack)-1] // Inspect will not send the pop
			return false
		}
		return true
	})
}

// obsMethod returns the called observability method, or nil if the call
// is not one: a method (or method value) whose defining package is an
// obs/trace package.
func obsMethod(info *types.Info, call *ast.CallExpr) *types.Func {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var obj types.Object
	if s := info.Selections[sel]; s != nil {
		obj = s.Obj()
	} else {
		obj = info.Uses[sel.Sel] // qualified identifier: pkg.Func
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !obsPackages[fn.Pkg().Name()] {
		return nil
	}
	return fn
}

// guarded reports whether the innermost node of stack is dominated by
// an observability guard: an enclosing if whose condition tests
// Enabled() or non-nilness, an else branch of a nil test, or an earlier
// early-exit statement in an enclosing block of the same function
// (`if !x.Enabled() { return }`, `if x == nil { return }`).
func guarded(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch node := stack[i].(type) {
		case *ast.IfStmt:
			child := stack[i+1]
			if child == ast.Node(node.Body) && condHasGuard(node.Cond, false) {
				return true
			}
			if child == node.Else && condHasGuard(node.Cond, true) {
				return true
			}
		case *ast.BlockStmt:
			child := stack[i+1]
			for _, stmt := range node.List {
				if stmt == child {
					break
				}
				if earlyExitGuard(stmt) {
					return true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			// A guard outside the enclosing function does not dominate
			// the function's own body (closures run later).
			return false
		}
	}
	return false
}

// condHasGuard reports whether cond contains a guard of the requested
// polarity: positive — an Enabled() call or an `x != nil` comparison;
// negated — an `x == nil` comparison (whose else branch is then safe).
func condHasGuard(cond ast.Expr, negated bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Enabled" && !negated {
				found = true
			}
		case *ast.BinaryExpr:
			if isNilCheck(n, negated) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isNilCheck matches `x != nil` (negated=false) or `x == nil`
// (negated=true).
func isNilCheck(b *ast.BinaryExpr, wantEq bool) bool {
	op := "!="
	if wantEq {
		op = "=="
	}
	if b.Op.String() != op {
		return false
	}
	return isNil(b.X) || isNil(b.Y)
}

func isNil(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// earlyExitGuard matches a preceding `if <!x.Enabled() | x == nil> {
// ... return/continue/break/panic }` statement.
func earlyExitGuard(stmt ast.Stmt) bool {
	ifs, ok := stmt.(*ast.IfStmt)
	if !ok || len(ifs.Body.List) == 0 {
		return false
	}
	if !terminates(ifs.Body.List[len(ifs.Body.List)-1]) {
		return false
	}
	found := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "!" {
				if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
						sel.Sel.Name == "Enabled" {
						found = true
					}
				}
			}
		case *ast.BinaryExpr:
			if isNilCheck(n, true) {
				found = true
			}
		}
		return !found
	})
	return found
}

// terminates reports whether stmt unconditionally leaves the block.
func terminates(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}
