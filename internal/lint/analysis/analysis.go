// Package analysis is a self-contained, stdlib-only equivalent of the
// golang.org/x/tools/go/analysis framework, sized for this repository's
// invariant lint suite (cmd/reunion-lint). It loads packages through the
// go command (`go list -deps -json`), type-checks them from source with
// go/types, and runs Analyzer values over the result.
//
// Why not x/tools: the module is deliberately dependency-free (go.mod
// has no requires), and the lint suite must run in the same offline
// environments the simulator does. The subset implemented here — typed
// packages, one pass per target package, diagnostics, and an
// analysistest-style harness (internal/lint/linttest) — is all the two
// analyzers need.
//
// Annotation vocabulary: analyzers honor `//reunion:<marker>` comments
// (see the Mark* constants) placed on the flagged line, the line above
// it, or a field's doc or trailing comment. The marker may be followed
// by free text justifying it: `//reunion:derived rebuilt by
// rebuildDerived on restore`.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Markers recognized in //reunion:<marker> annotation comments.
const (
	// MarkDerived names snapshot-skipped state that a restore rebuilds
	// from authoritative serialized state (waiter chains, memo lists).
	MarkDerived = "derived"
	// MarkShared names reference fields intentionally shared between a
	// snapshot and the live machine: identity-preserved component wiring
	// or immutable-once-created values.
	MarkShared = "shared"
)

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run reports diagnostics through the pass, once per target package.
	Run func(*Pass) error
}

// A Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Package is one type-checked package under analysis, with syntax.
type Package struct {
	Path  string // import path
	Name  string // package name
	Dir   string // source directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	fset *token.FileSet
	// markers: file name -> line -> markers present on that line.
	markers map[string]map[int][]string
	// fieldAt maps a struct field object's Pos to its declaration.
	fieldAt map[token.Pos]*ast.Field
}

// A Program is one load: the packages named by the load patterns.
type Program struct {
	Fset *token.FileSet
	// Targets are the module's or testdata tree's own packages (never
	// the standard library) that the patterns match, in load
	// (dependency-first) order.
	Targets []*Package
}

// A Pass carries one analyzer invocation's inputs and its report sink.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes each analyzer over every target package and returns all
// diagnostics sorted by position.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		for _, pkg := range prog.Targets {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// finish indexes a freshly type-checked package: annotation markers by
// line and struct fields by position.
func (p *Package) finish(fset *token.FileSet) {
	p.fset = fset
	p.markers = make(map[string]map[int][]string)
	p.fieldAt = make(map[token.Pos]*ast.Field)
	for _, f := range p.Files {
		name := fset.Position(f.Package).Filename
		lines := make(map[int][]string)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range markersIn(c.Text) {
					line := fset.Position(c.Pos()).Line
					lines[line] = append(lines[line], m)
				}
			}
		}
		p.markers[name] = lines
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 {
					// Embedded: the field object's Pos is the type's.
					p.fieldAt[embeddedPos(field.Type)] = field
					continue
				}
				for _, id := range field.Names {
					p.fieldAt[id.Pos()] = field
				}
			}
			return true
		})
	}
}

// embeddedPos returns the position go/types assigns an embedded field:
// the position of its (possibly qualified, possibly dereferenced) name.
func embeddedPos(t ast.Expr) token.Pos {
	switch t := t.(type) {
	case *ast.StarExpr:
		return embeddedPos(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Pos()
	case *ast.IndexExpr: // generic instantiation
		return embeddedPos(t.X)
	}
	return t.Pos()
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

// MarkedAt reports whether a //reunion:<marker> annotation covers pos:
// on the same line or on the line immediately above it.
func (p *Package) MarkedAt(pos token.Pos, marker string) bool {
	position := p.fset.Position(pos)
	lines := p.markers[position.Filename]
	for _, m := range lines[position.Line] {
		if m == marker {
			return true
		}
	}
	for _, m := range lines[position.Line-1] {
		if m == marker {
			return true
		}
	}
	return false
}

// FieldMarked reports whether a struct field's declaration carries the
// marker, via its doc comment, trailing line comment, or a marker
// line directly above it.
func (p *Package) FieldMarked(fv *types.Var, marker string) bool {
	if f := p.fieldAt[fv.Pos()]; f != nil {
		if commentHasMarker(f.Doc, marker) || commentHasMarker(f.Comment, marker) {
			return true
		}
	}
	return p.MarkedAt(fv.Pos(), marker)
}

func commentHasMarker(cg *ast.CommentGroup, marker string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		for _, m := range markersIn(c.Text) {
			if m == marker {
				return true
			}
		}
	}
	return false
}

// WithStack walks the file like ast.Inspect but hands fn the stack of
// enclosing nodes, outermost first; the visited node is stack's last
// element. Returning false prunes the subtree.
func WithStack(f *ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
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
