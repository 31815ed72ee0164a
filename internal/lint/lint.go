// Package lint holds the repository's invariant check, snapshotComplete
// (snapshotcomplete.go), which catches bugs no test in the suite
// catches, and the loader it runs over. `go test ./internal/lint/` runs
// it over every package of the module (TestRepoIsClean) and over its
// fixture module under testdata/. DESIGN.md ("Static analysis") gives
// the rationale.
package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// A target is one type-checked package of the module under analysis,
// with its syntax and comments.
type target struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// A finding is one violation a check reports.
type finding struct {
	pos token.Pos
	msg string
}

// load type-checks every package `go list ./...` names in the module in
// the working directory, with syntax and comments. They are checked in
// dependency order, each importing the module packages checked before
// it; one source importer serves every other import, the standard
// library, type-checking each from source once. Cgo is off for both the
// listing and the importer: every package and dependency must have a
// pure-Go build, as the simulator does. Any listing, parse or type error
// fails the whole load.
func load() ([]*target, error) {
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list ./...: %v\n%s", err, stderr.Bytes())
	}
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)
	local := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := local[path]; p != nil {
			return p, nil
		}
		return src.Import(path)
	})
	var targets []*target
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("go list ./...: decoding output: %v", err)
		}
		if lp.Standard {
			continue // imported from source on demand
		}
		t := &target{fset: fset, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			t.files = append(t.files, f)
		}
		var errs []string
		conf := types.Config{Importer: imp, Error: func(err error) { errs = append(errs, err.Error()) }}
		t.pkg, _ = conf.Check(lp.ImportPath, fset, t.files, t.info)
		if len(errs) > 0 {
			return nil, fmt.Errorf("type-checking %s: %s", lp.ImportPath, strings.Join(errs, "; "))
		}
		local[lp.ImportPath] = t.pkg
		targets = append(targets, t)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("go list ./... named no packages")
	}
	return targets, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
