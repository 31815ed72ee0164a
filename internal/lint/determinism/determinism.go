// Package determinism flags host-nondeterminism in code that can reach
// a deterministic sink: a sweep result Sink, the distributed journal,
// or the fingerprint/digest pipeline. The simulator's contract is that
// identical configs produce bit-identical results across hosts and
// runs; one time.Now() or unsorted map range on any path into those
// sinks breaks replayability in ways no unit test reliably catches.
//
// The analyzer builds a whole-program callgraph over the module's
// function declarations (call edges plus function-value references,
// with interface calls resolved against every module type that
// implements the interface) and reverse-taints from the sinks. Within
// tainted functions it reports:
//
//   - time.Now / time.Since calls — use the simulated tick;
//   - package-level math/rand draws (seeded *rand.Rand instances and
//     constructors are fine);
//   - range over a map whose body neither only deletes nor is followed
//     by a sort in the same function — iteration order leaks.
//
// Escape hatch: `//reunion:nondeterm-ok` on the statement, the
// function declaration, or the file's package clause, for code whose
// host-time use is intentional (bench harnesses, latency telemetry).
package determinism

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"reunion/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "functions that can reach a sweep Sink, dist.Journal, or fingerprint/digest " +
		"sink must not call time.Now/Since, draw from global math/rand, or range over " +
		"maps unsorted; annotate intentional host-time code //reunion:nondeterm-ok",
	WholeProgram: true,
	Run:          run,
}

// randConstructors are math/rand package-level functions that build
// seeded instances rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

type declSite struct {
	pkg *analysis.Package
	fd  *ast.FuncDecl
}

func run(pass *analysis.Pass) error {
	prog := pass.Prog

	// Deterministic package order so edge lists, BFS order, and witness
	// choices are stable run to run.
	paths := make([]string, 0, len(prog.Pkgs))
	for path := range prog.Pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)

	// Nodes: every function declaration in the analysis domain.
	decls := map[*types.Func]declSite{}
	var order []*types.Func
	for _, path := range paths {
		pkg := prog.Pkgs[path]
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = declSite{pkg, fd}
					order = append(order, fn)
				}
			}
		}
	}

	// All module named types, for interface-call resolution and sink
	// interface discovery.
	var namedTypes []*types.Named
	var sinkIfaces []*types.Interface
	for _, path := range paths {
		scope := prog.Pkgs[path].Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			namedTypes = append(namedTypes, n)
			if iface, ok := n.Underlying().(*types.Interface); ok && tn.Name() == "Sink" {
				sinkIfaces = append(sinkIfaces, iface)
			}
		}
	}

	// Reverse edges: callee -> callers. A reference counts as an edge —
	// function values flow to their eventual call sites conservatively.
	callers := map[*types.Func][]*types.Func{}
	addEdge := func(caller, callee *types.Func) {
		callers[callee] = append(callers[callee], caller)
	}
	resolveIface := func(caller, m *types.Func) {
		iface, ok := m.Signature().Recv().Type().Underlying().(*types.Interface)
		if !ok {
			return
		}
		for _, n := range namedTypes {
			if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, m.Pkg(), m.Name())
			if impl, ok := obj.(*types.Func); ok {
				if _, isDecl := decls[impl]; isDecl {
					addEdge(caller, impl)
				}
			}
		}
	}
	for _, fn := range order {
		site := decls[fn]
		if site.fd.Body == nil {
			continue
		}
		info := site.pkg.Info
		ast.Inspect(site.fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if _, isDecl := decls[callee]; isDecl {
				addEdge(fn, callee)
			} else if recv := callee.Signature().Recv(); recv != nil {
				if _, ok := recv.Type().Underlying().(*types.Interface); ok {
					resolveIface(fn, callee)
				}
			}
			return true
		})
	}

	// Reverse BFS from the sinks; each tainted function remembers one
	// sink it can reach, for the diagnostic.
	witness := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, fn := range order {
		if isSink(fn, decls[fn], sinkIfaces) {
			witness[fn] = fn
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		callee := queue[0]
		queue = queue[1:]
		w := witness[callee]
		for _, caller := range callers[callee] {
			if _, seen := witness[caller]; !seen {
				witness[caller] = w
				queue = append(queue, caller)
			}
		}
	}

	// Scan tainted target functions for violations.
	for _, pkg := range prog.Targets {
		for _, f := range pkg.Files {
			if pkg.FileMarked(f, analysis.MarkNondetermOK) {
				continue
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				sink, tainted := witness[fn]
				if !tainted || pkg.FuncMarked(fd, analysis.MarkNondetermOK) {
					continue
				}
				checkBody(pass, pkg, fd, fullName(fn), fullName(sink))
			}
		}
	}
	return nil
}

// isSink reports whether fn is a deterministic-output sink: a method of
// a module Sink interface on a type implementing it, any method of
// dist's Journal, anything in a fingerprint package, or a function
// whose name marks it as part of the digest pipeline.
func isSink(fn *types.Func, site declSite, sinkIfaces []*types.Interface) bool {
	pkgBase := analysis.Basename(site.pkg.Path)
	if pkgBase == "fingerprint" {
		return true
	}
	name := fn.Name()
	if strings.Contains(name, "Digest") || name == "Fingerprint" {
		return true
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	if named == nil {
		return false
	}
	if pkgBase == "dist" && named.Obj().Name() == "Journal" {
		return true
	}
	for _, iface := range sinkIfaces {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == name {
				return true
			}
		}
	}
	return false
}

// checkBody reports nondeterminism inside one tainted function.
func checkBody(pass *analysis.Pass, pkg *analysis.Package, fd *ast.FuncDecl, where, sink string) {
	info := pkg.Info
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			callee, ok := info.Uses[sel.Sel].(*types.Func)
			if !ok || callee.Pkg() == nil || pkg.MarkedAt(n.Pos(), analysis.MarkNondetermOK) {
				return true
			}
			switch callee.Pkg().Path() {
			case "time":
				if callee.Name() == "Now" || callee.Name() == "Since" {
					pass.Reportf(n.Pos(),
						"%s calls time.%s but can reach deterministic sink %s: "+
							"use the simulated tick, or annotate //reunion:nondeterm-ok if host-time-only",
						where, callee.Name(), sink)
				}
			case "math/rand", "math/rand/v2":
				if callee.Signature().Recv() == nil && !randConstructors[callee.Name()] {
					pass.Reportf(n.Pos(),
						"%s draws from global math/rand (%s) but can reach deterministic sink %s: "+
							"use a seeded *rand.Rand, or annotate //reunion:nondeterm-ok",
						where, callee.Name(), sink)
				}
			}
		case *ast.RangeStmt:
			tv, ok := info.Types[n.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if pkg.MarkedAt(n.Pos(), analysis.MarkNondetermOK) ||
				deleteOnly(n.Body) || sortedLater(stack) {
				return true
			}
			pass.Reportf(n.Pos(),
				"%s ranges over map %s in nondeterministic order and can reach deterministic sink %s: "+
					"sort the keys first, or annotate //reunion:nondeterm-ok",
				where, types.ExprString(n.X), sink)
		}
		return true
	})
}

// deleteOnly reports whether a range body only deletes from maps —
// order-insensitive, the one idiomatic unsorted map range.
func deleteOnly(body *ast.BlockStmt) bool {
	if len(body.List) == 0 {
		return false
	}
	for _, stmt := range body.List {
		es, ok := stmt.(*ast.ExprStmt)
		if !ok {
			return false
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "delete" {
			return false
		}
	}
	return true
}

// sortedLater reports whether a sort.* or slices.Sort* call follows the
// innermost stack node in any enclosing block of the same function —
// the collect-keys-then-sort idiom.
func sortedLater(stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		switch node := stack[i].(type) {
		case *ast.BlockStmt:
			child := stack[i+1]
			after := false
			for _, stmt := range node.List {
				if after && containsSortCall(stmt) {
					return true
				}
				if stmt == child {
					after = true
				}
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return false
		}
	}
	return false
}

func containsSortCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if x, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if x.Name == "sort" || (x.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// namedOf unwraps pointers to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// fullName renders a function for diagnostics: Type.Method or pkg.Func.
func fullName(fn *types.Func) string {
	if recv := fn.Signature().Recv(); recv != nil {
		if n := namedOf(recv.Type()); n != nil {
			return n.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
