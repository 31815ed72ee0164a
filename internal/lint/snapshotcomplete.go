package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Markers recognized in //reunion:<marker> annotation comments on a
// field's declaration. Free text may follow the marker to justify it:
// `//reunion:derived rebuilt by rebuildDerived on restore`.
const (
	// markDerived names snapshot-skipped state that a restore rebuilds
	// from authoritative serialized state (waiter chains, memo lists).
	markDerived = "derived"
	// markShared names reference fields intentionally shared between a
	// snapshot and the live machine: identity-preserved component wiring
	// or immutable-once-created values.
	markShared = "shared"
)

// snapshotFiles are the per-package files that constitute the snapshot
// path.
var snapshotFiles = map[string]bool{
	"snapshot.go": true, "wire.go": true, "serialize.go": true,
}

// captureMode says which fields of a serialized struct need evidence.
type captureMode int

const (
	modeRefsOnly  captureMode = iota // shallow-copied: scalars are automatic
	modeAllFields                    // wire-encoded: nothing is automatic
)

// snapshotComplete enforces the checkpoint-capture contract in every
// package that has a snapshot path (a snapshot.go, wire.go, or
// serialize.go file): a struct that participates in snapshotting may
// not grow a field the snapshot path silently loses.
//
// Two capture idioms exist in this repository, and the check follows
// both:
//
//   - Shallow-copy snapshots (snapshot.go): `s.core = *c` captures every
//     scalar automatically, so only reference-typed fields (slices,
//     maps, pointers, chans, funcs, interfaces) can be lost — each must
//     be mentioned in a Snapshot or Restore function (deep-copied or
//     fixed up) or annotated. A mention in the wire walk does not count:
//     writing a field to the wire does not copy it, so a snapshot whose
//     Snapshot and Restore skip it shares it with the live machine.
//     Assigning nil drops a field rather than capturing it, so a field
//     the path only nils needs the annotation that says why. Struct
//     values captured by the copy (including slice/array elements) are
//     checked recursively the same way: a reference inside a copied
//     element leaks identity just as surely. A value of another package's
//     struct type that holds references (an embedded shared component)
//     cannot be checked field by field, so it must be mentioned in both a
//     Snapshot and a Restore function: the copy that detaches it from the
//     live machine is a call each direction has to make.
//
//   - Field-by-field wire walks (a wire.go Walk method): nothing is
//     automatic, so every field of a walked struct must be mentioned
//     in the snapshot path or annotated. Struct-typed constituents
//     (slice elements, nested values) are checked recursively with the
//     same all-fields rule.
//
// Escapes: `//reunion:derived` on a field declares rebuilt-on-restore
// state (never captured, reconstructed from serialized state, such as
// the issue-stage waiter chains); `//reunion:shared` declares a reference intentionally
// shared between snapshot and live machine (identity-preserved
// component wiring, immutable-once-created values).
func snapshotComplete(tg *target) []finding {
	var snapFiles []*ast.File
	for _, f := range tg.files {
		name := filepath.Base(tg.fset.Position(f.Package).Filename)
		if snapshotFiles[name] {
			snapFiles = append(snapFiles, f)
		}
	}
	if len(snapFiles) == 0 {
		return nil
	}
	info := tg.info

	// Pass 1 over the snapshot path: which fields are mentioned (anywhere,
	// and in a Snapshot or Restore function), which structs are
	// shallow-copied, which are snapshot/walk receivers.
	referenced := map[*types.Var]bool{}
	copied := map[*types.Var]copyDirs{}
	shallow := map[*types.Named]bool{}
	serialized := map[*types.Named]captureMode{}

	noteNamed := func(t types.Type, mode captureMode) {
		if n := localNamedStruct(tg.pkg, t); n != nil {
			if cur, ok := serialized[n]; !ok || mode > cur {
				serialized[n] = mode
			}
		}
	}

	for _, f := range snapFiles {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			recv := info.Defs[fd.Name].(*types.Func).Signature().Recv()
			switch fd.Name.Name {
			case "Snapshot":
				noteNamed(recv.Type(), modeRefsOnly)
				if res := info.Defs[fd.Name].(*types.Func).Signature().Results(); res.Len() == 1 {
					noteNamed(res.At(0).Type(), modeAllFields)
				}
			case "Walk":
				noteNamed(recv.Type(), modeAllFields)
			}
		}
		// A field assigned nil on the snapshot path is dropped, not
		// captured: like a field never mentioned, it needs an annotation.
		dropped := map[*ast.SelectorExpr]bool{}
		var copyFuncs []*ast.FuncDecl
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Name.Name == "Snapshot" || fd.Name.Name == "Restore") {
				copyFuncs = append(copyFuncs, fd)
			}
		}
		// mention records a field mentioned at n: in copied too when n
		// lies in a Snapshot or Restore function.
		mention := func(v *types.Var, n ast.Node) {
			referenced[v] = true
			for _, fd := range copyFuncs {
				if fd.Pos() <= n.Pos() && n.End() <= fd.End() {
					if fd.Name.Name == "Snapshot" {
						copied[v] |= inSnapshot
					} else {
						copied[v] |= inRestore
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && info.Types[n.Rhs[i]].IsNil() {
							dropped[sel] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !dropped[n] {
					mention(s.Obj().(*types.Var), n)
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok && !info.Types[n.Value].IsNil() {
					if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
						mention(v, n)
					}
				}
			case *ast.StarExpr:
				// `*b` copying a whole struct value marks the shallow-copy
				// idiom (both `x := *b` and `*b = snap` directions); `*pp`
				// of a pointer to a pointer copies only a pointer.
				tv, ok := info.Types[n.X]
				if !ok || !tv.IsValue() {
					return true
				}
				ptr, ok := tv.Type.Underlying().(*types.Pointer)
				if !ok {
					return true
				}
				if _, ok := ptr.Elem().Underlying().(*types.Struct); !ok {
					return true
				}
				if named := localNamedStruct(tg.pkg, ptr.Elem()); named != nil {
					shallow[named] = true
				}
			}
			return true
		})
	}
	// Shallow-copied structs are checked refs-only even when they also
	// have a Snapshot/Walk method.
	for n := range shallow {
		serialized[n] = modeRefsOnly
	}

	// Close over struct-typed constituents: a value struct reachable
	// from a serialized struct's fields is captured (or encoded) with
	// it, so its fields face the same rule.
	worklist := make([]*types.Named, 0, len(serialized))
	for n := range serialized {
		worklist = append(worklist, n)
	}
	for len(worklist) > 0 {
		n := worklist[0]
		worklist = worklist[1:]
		mode := serialized[n]
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			for _, elem := range valueConstituents(st.Field(i).Type()) {
				child := localNamedStruct(tg.pkg, elem)
				if child == nil || shallow[child] {
					continue
				}
				if cur, ok := serialized[child]; !ok || mode > cur {
					serialized[child] = mode
					worklist = append(worklist, child)
				}
			}
		}
	}

	// Report: deterministic order over the serialized structs.
	var names []*types.Named
	for n := range serialized {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		return names[i].Obj().Name() < names[j].Obj().Name()
	})
	var out []finding
	for _, n := range names {
		mode := serialized[n]
		st := n.Underlying().(*types.Struct)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "_" {
				continue
			}
			// A shallow copy shares a reference field with the live
			// machine unless Snapshot or Restore copies it: the wire walk
			// writing it does not. Another package's struct holding
			// references needs a copy in each direction.
			foreign := mode == modeRefsOnly && !isRefType(f.Type()) && holdsForeignRefs(tg.pkg, f.Type())
			if mode == modeRefsOnly && !foreign && (copied[f] != 0 || !isRefType(f.Type())) ||
				foreign && copied[f] == inSnapshot|inRestore ||
				mode == modeAllFields && referenced[f] {
				continue
			}
			if fieldMarked(tg, f, markDerived) || fieldMarked(tg, f, markShared) {
				continue
			}
			what := "captured by the snapshot path"
			switch {
			case foreign:
				what = "deep-copied in both Snapshot and Restore"
			case mode == modeRefsOnly:
				what = "deep-copied nor fixed up in the snapshot path"
			}
			out = append(out, finding{f.Pos(), fmt.Sprintf(
				"field %s.%s is neither %s (snapshot.go/wire.go/serialize.go) nor annotated "+
					"//reunion:derived or //reunion:shared — a checkpoint would silently lose it",
				n.Obj().Name(), f.Name(), what)})
		}
	}
	return out
}

// copyDirs records which copy functions, Snapshot or Restore, mention a
// field.
type copyDirs uint8

const (
	inSnapshot copyDirs = 1 << iota
	inRestore
)

// fieldMarked reports whether a //reunion:<marker> annotation covers the
// struct field fv: in a comment starting on its line or the line above,
// or in its declaration's doc or trailing comment.
func fieldMarked(tg *target, fv *types.Var, marker string) bool {
	has := func(c *ast.Comment) bool { return slices.Contains(markersIn(c.Text), marker) }
	file := tg.fset.File(fv.Pos())
	line := file.Line(fv.Pos())
	for _, f := range tg.files {
		if tg.fset.File(f.Package) != file {
			continue
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if l := file.Line(c.Pos()); (l == line || l == line-1) && has(c) {
					return true
				}
			}
		}
		// The innermost field declaration spanning fv's position is fv's.
		var decl *ast.Field
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil || n.Pos() > fv.Pos() || n.End() <= fv.Pos() {
				return false
			}
			if fd, ok := n.(*ast.Field); ok {
				decl = fd
			}
			return true
		})
		return decl != nil && (decl.Doc != nil && slices.ContainsFunc(decl.Doc.List, has) ||
			decl.Comment != nil && slices.ContainsFunc(decl.Comment.List, has))
	}
	return false
}

// markersIn extracts reunion annotation markers from one comment's text.
func markersIn(text string) []string {
	var out []string
	rest := text
	for {
		i := strings.Index(rest, "//reunion:")
		if i < 0 {
			return out
		}
		rest = rest[i+len("//reunion:"):]
		end := strings.IndexFunc(rest, func(r rune) bool {
			return r == ' ' || r == '\t' || r == '\n'
		})
		if end < 0 {
			end = len(rest)
		}
		if m := rest[:end]; m != "" {
			out = append(out, m)
		}
	}
}

// localNamedStruct returns t as a named struct type defined in pkg, or
// nil.
func localNamedStruct(pkg *types.Package, t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Named:
			if u.Obj().Pkg() != pkg {
				return nil
			}
			if _, ok := u.Underlying().(*types.Struct); ok {
				return u
			}
			return nil
		default:
			return nil
		}
	}
}

// valueConstituents returns the struct-valued types captured wholesale
// when a field of type t is copied: t itself, slice/array elements, and
// map values. Pointees are not included — a pointer field is itself the
// reference needing evidence, and its target has its own snapshot.
func valueConstituents(t types.Type) []types.Type {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		return []types.Type{t}
	case *types.Slice:
		return valueConstituents(u.Elem())
	case *types.Array:
		return valueConstituents(u.Elem())
	case *types.Map:
		return valueConstituents(u.Elem())
	}
	return nil
}

// holdsForeignRefs reports whether a value of type t (a struct or an
// array of structs) is another package's named struct that holds a
// reference, which the local constituent closure cannot follow.
func holdsForeignRefs(pkg *types.Package, t types.Type) bool {
	for _, elem := range valueConstituents(t) {
		if n, ok := elem.(*types.Named); ok && n.Obj().Pkg() != pkg && holdsRefs(n) {
			return true
		}
	}
	return false
}

// holdsRefs reports whether a shallow copy of a value of type t shares a
// reference with the original, at any depth of nested value structs.
func holdsRefs(t types.Type) bool {
	if isRefType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsRefs(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return holdsRefs(u.Elem())
	}
	return false
}

// isRefType reports whether a field of this type can escape a shallow
// struct copy: anything that aliases or is rebuilt rather than copied.
func isRefType(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Array:
		return isRefType(u.Elem())
	case *types.Struct:
		// A nested value struct is captured by the copy, but any
		// reference fields inside it are handled via the constituent
		// closure — the field itself is not a reference.
		return false
	}
	return false
}
