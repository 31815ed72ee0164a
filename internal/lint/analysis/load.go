package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package loading. Two entry points share one machinery:
//
//   - LoadModule: the production path. `go list -e -deps -json` under a
//     module directory enumerates the packages and their complete
//     dependency closure in dependency-first order; everything is
//     type-checked from source (CGO_ENABLED=0, so the pure-Go variants
//     of net, os/user, etc. are selected and no cgo-generated code is
//     needed). Standard-library packages are checked once per process
//     with IgnoreFuncBodies and cached — only their exported API matters.
//
//   - LoadTree: the analysistest path. A GOPATH-style testdata tree
//     (root/src/<importpath>/*.go) is discovered by walking, topo-sorted
//     by its internal imports, and type-checked against the same shared
//     standard-library cache, so analyzer test fixtures can stand in
//     for real packages without a go.mod.

// sharedFset is the process-wide FileSet: the standard-library cache is
// shared across loads, so every Program must resolve positions through
// one FileSet.
var sharedFset = token.NewFileSet()

var loadMu sync.Mutex // guards stdCache and sharedFset growth

// stdCache holds type-checked standard-library packages by ImportPath
// (GOROOT-vendored packages under their "vendor/"-prefixed path).
var stdCache = map[string]*types.Package{"unsafe": types.Unsafe}

// listedPkg is the subset of `go list -json` output the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// goList runs the go command's lister in dir.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e",
		"-json=ImportPath,Dir,Name,GoFiles,Standard,DepOnly,Error"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOPROXY=off", "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []*listedPkg
	for dec.More() {
		p := new(listedPkg)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// cacheImporter resolves imports from the standard-library cache plus an
// optional load-local package map, handling GOROOT vendoring.
type cacheImporter struct {
	local map[string]*types.Package
}

func (ci cacheImporter) Import(path string) (*types.Package, error) {
	if p, ok := ci.local[path]; ok {
		return p, nil
	}
	if p, ok := stdCache[path]; ok {
		return p, nil
	}
	if p, ok := stdCache["vendor/"+path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("package %q has not been loaded", path)
}

// parseFiles parses the named files in dir.
func parseFiles(dir string, names []string, mode parser.Mode) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(sharedFset, filepath.Join(dir, name), nil, mode)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkStd type-checks one standard-library package into the cache.
// Callers present packages in dependency-first order.
func checkStd(lp *listedPkg) error {
	if _, ok := stdCache[lp.ImportPath]; ok {
		return nil
	}
	if lp.Error != nil {
		return fmt.Errorf("%s: %s", lp.ImportPath, lp.Error.Err)
	}
	files, err := parseFiles(lp.Dir, lp.GoFiles, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	conf := types.Config{
		Importer:         cacheImporter{},
		IgnoreFuncBodies: true,
		Error:            func(error) {}, // API surface is all that matters
	}
	tp, err := conf.Check(lp.ImportPath, sharedFset, files, nil)
	if tp == nil {
		return fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	stdCache[lp.ImportPath] = tp
	return nil
}

// newInfo allocates the full types.Info the analyzers consume.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// LoadModule loads the module rooted at dir: every package matching the
// patterns plus the full dependency closure, type-checked from source.
// Dependencies are checked only to resolve imports; the returned
// Program's Targets are the pattern matches.
func LoadModule(dir string, patterns ...string) (*Program, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, append([]string{"-deps", "--"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: sharedFset}
	local := map[string]*types.Package{}
	var loadErrs []string
	for _, lp := range listed {
		if lp.ImportPath == "unsafe" {
			continue
		}
		if lp.Standard {
			if err := checkStd(lp); err != nil {
				loadErrs = append(loadErrs, err.Error())
			}
			continue
		}
		if lp.Error != nil {
			loadErrs = append(loadErrs, fmt.Sprintf("%s: %s", lp.ImportPath, lp.Error.Err))
			continue
		}
		files, err := parseFiles(lp.Dir, lp.GoFiles, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			loadErrs = append(loadErrs, err.Error())
			continue
		}
		var tcErrs []string
		conf := types.Config{
			Importer: cacheImporter{local: local},
			Error:    func(err error) { tcErrs = append(tcErrs, err.Error()) },
		}
		info := newInfo()
		tp, _ := conf.Check(lp.ImportPath, sharedFset, files, info)
		if len(tcErrs) > 0 {
			loadErrs = append(loadErrs, fmt.Sprintf("%s: %s", lp.ImportPath, strings.Join(tcErrs, "; ")))
			continue
		}
		local[lp.ImportPath] = tp
		if !lp.DepOnly {
			pkg := &Package{
				Path: lp.ImportPath, Name: lp.Name, Dir: lp.Dir,
				Files: files, Types: tp, Info: info,
			}
			pkg.finish(sharedFset)
			prog.Targets = append(prog.Targets, pkg)
		}
	}
	if len(loadErrs) > 0 {
		return nil, fmt.Errorf("load: %s", strings.Join(loadErrs, "\n"))
	}
	return prog, nil
}

// LoadTree loads a GOPATH-style source tree: root/src/<importpath>/*.go.
// Patterns are import paths within the tree ("snap", "det/..."); with
// none given, every package in the tree is a target.
func LoadTree(root string, patterns ...string) (*Program, error) {
	loadMu.Lock()
	defer loadMu.Unlock()

	src := filepath.Join(root, "src")
	byDir := map[string][]string{} // import path -> go files
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		rel, err := filepath.Rel(src, filepath.Dir(path))
		if err != nil {
			return err
		}
		ip := filepath.ToSlash(rel)
		byDir[ip] = append(byDir[ip], d.Name())
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("walking %s: %v", src, err)
	}
	if len(byDir) == 0 {
		return nil, fmt.Errorf("no packages under %s", src)
	}

	type treePkg struct {
		path    string
		dir     string
		files   []*ast.File
		imports []string
	}
	parsed := map[string]*treePkg{}
	var external []string
	seenExt := map[string]bool{}
	for ip, names := range byDir {
		sort.Strings(names)
		dir := filepath.Join(src, filepath.FromSlash(ip))
		files, err := parseFiles(dir, names, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		tp := &treePkg{path: ip, dir: dir, files: files}
		for _, f := range files {
			for _, imp := range f.Imports {
				p := strings.Trim(imp.Path.Value, `"`)
				tp.imports = append(tp.imports, p)
				if _, inTree := byDir[p]; !inTree && !seenExt[p] {
					seenExt[p] = true
					external = append(external, p)
				}
			}
		}
		parsed[ip] = tp
	}

	// Resolve external (standard-library) imports through the shared
	// cache, fetching any missing closure in one go list call.
	var missing []string
	for _, p := range external {
		if _, ok := stdCache[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		listed, err := goList("", append([]string{"-deps", "--"}, missing...)...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.ImportPath == "unsafe" {
				continue
			}
			if !lp.Standard {
				return nil, fmt.Errorf("tree %s imports non-standard package %s", root, lp.ImportPath)
			}
			if err := checkStd(lp); err != nil {
				return nil, err
			}
		}
	}

	// Topological order over tree-internal imports.
	var order []string
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(string) error
	visit = func(ip string) error {
		switch state[ip] {
		case 1:
			return fmt.Errorf("import cycle through %s", ip)
		case 2:
			return nil
		}
		state[ip] = 1
		for _, dep := range parsed[ip].imports {
			if _, inTree := parsed[dep]; inTree {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[ip] = 2
		order = append(order, ip)
		return nil
	}
	var roots []string
	for ip := range parsed {
		roots = append(roots, ip)
	}
	sort.Strings(roots)
	for _, ip := range roots {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}

	match := func(ip string) bool {
		if len(patterns) == 0 {
			return true
		}
		for _, pat := range patterns {
			if pat == ip || pat == "./..." {
				return true
			}
			if prefix, ok := strings.CutSuffix(pat, "/..."); ok &&
				(ip == prefix || strings.HasPrefix(ip, prefix+"/")) {
				return true
			}
		}
		return false
	}
	prog := &Program{Fset: sharedFset}
	local := map[string]*types.Package{}
	for _, ip := range order {
		tp := parsed[ip]
		var tcErrs []string
		conf := types.Config{
			Importer: cacheImporter{local: local},
			Error:    func(err error) { tcErrs = append(tcErrs, err.Error()) },
		}
		info := newInfo()
		typed, _ := conf.Check(ip, sharedFset, tp.files, info)
		if len(tcErrs) > 0 {
			return nil, fmt.Errorf("%s: %s", ip, strings.Join(tcErrs, "; "))
		}
		local[ip] = typed
		if match(ip) {
			pkg := &Package{
				Path: ip, Name: typed.Name(), Dir: tp.dir,
				Files: tp.files, Types: typed, Info: info,
			}
			pkg.finish(sharedFset)
			prog.Targets = append(prog.Targets, pkg)
		}
	}
	if len(prog.Targets) == 0 {
		return nil, fmt.Errorf("no packages in %s match %v", root, patterns)
	}
	return prog, nil
}
