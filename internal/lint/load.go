package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// module locates the enclosing Go module.
type module struct {
	Root string // absolute directory containing go.mod
	Path string // module path declared in go.mod
}

// findModule walks up from dir to the nearest go.mod.
func findModule(dir string) (module, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return module{}, err
	}
	for cur := abs; ; {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			path, err := modulePath(data)
			if err != nil {
				return module{}, fmt.Errorf("%s/go.mod: %w", cur, err)
			}
			return module{Root: cur, Path: path}, nil
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			return module{}, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		cur = parent
	}
}

// modulePath extracts the module declaration from go.mod contents.
func modulePath(gomod []byte) (string, error) {
	for _, line := range strings.Split(string(gomod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module declaration")
}

// packageDir is one directory of Go source, split into the three compile
// units the go tool recognises.
type packageDir struct {
	Dir        string // absolute
	ImportPath string
	Name       string // package name of the base unit

	Base  []*ast.File // non-test files
	Tests []*ast.File // in-package *_test.go
	XTest []*ast.File // external (package foo_test) *_test.go

	baseImports []string // module-internal imports of the base unit
}

// discover walks the module tree and parses every package directory.
// testdata, hidden, and underscore-prefixed directories are skipped,
// mirroring the go tool's rules.
func discover(fset *token.FileSet, mod module) (map[string]*packageDir, error) {
	dirs := make(map[string]*packageDir)
	err := filepath.WalkDir(mod.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != mod.Root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		rel, err := filepath.Rel(mod.Root, dir)
		if err != nil {
			return err
		}
		importPath := mod.Path
		if rel != "." {
			importPath = mod.Path + "/" + filepath.ToSlash(rel)
		}
		pd := dirs[importPath]
		if pd == nil {
			pd = &packageDir{Dir: dir, ImportPath: importPath}
			dirs[importPath] = pd
		}
		return pd.addFile(fset, path, mod)
	})
	if err != nil {
		return nil, err
	}
	// Drop directories with no buildable Go files (e.g. doc-only dirs).
	for path, pd := range dirs {
		if len(pd.Base) == 0 && len(pd.Tests) == 0 && len(pd.XTest) == 0 {
			delete(dirs, path)
		}
	}
	return dirs, nil
}

// addFile parses one source file into the right compile unit.
func (pd *packageDir) addFile(fset *token.FileSet, path string, mod module) error {
	file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return fmt.Errorf("lint: parse %s: %w", path, err)
	}
	name := file.Name.Name
	switch {
	case strings.HasSuffix(path, "_test.go") && strings.HasSuffix(name, "_test"):
		pd.XTest = append(pd.XTest, file)
	case strings.HasSuffix(path, "_test.go"):
		pd.Tests = append(pd.Tests, file)
	default:
		pd.Base = append(pd.Base, file)
		pd.Name = name
		for _, imp := range file.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == mod.Path || strings.HasPrefix(p, mod.Path+"/") {
				pd.baseImports = append(pd.baseImports, p)
			}
		}
	}
	return nil
}

// loader type-checks module packages on demand, resolving module-internal
// imports from the discovered tree and everything else through the
// toolchain's export data (with a from-source fallback).
type loader struct {
	fset    *token.FileSet
	mod     module
	dirs    map[string]*packageDir
	cache   map[string]*types.Package
	loading map[string]bool
	std     types.Importer
	stdSrc  types.Importer
}

func newLoader(fset *token.FileSet, mod module, dirs map[string]*packageDir) *loader {
	return &loader{
		fset:    fset,
		mod:     mod,
		dirs:    dirs,
		cache:   make(map[string]*types.Package),
		loading: make(map[string]bool),
		std:     importer.ForCompiler(fset, "gc", nil),
		stdSrc:  importer.ForCompiler(fset, "source", nil),
	}
}

// Import implements types.Importer over the module graph.
//
//lint:ignore unused go/types calls it through types.Importer
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if path == l.mod.Path || strings.HasPrefix(path, l.mod.Path+"/") {
		pd, ok := l.dirs[path]
		if !ok || len(pd.Base) == 0 {
			return nil, fmt.Errorf("lint: no package %s in module", path)
		}
		if l.loading[path] {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
		l.loading[path] = true
		defer delete(l.loading, path)
		pkg, _, err := l.check(path, pd.Base)
		if err != nil {
			return nil, err
		}
		l.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := l.std.Import(path)
	if err != nil {
		if pkg, srcErr := l.stdSrc.Import(path); srcErr == nil {
			return pkg, nil
		}
		return nil, fmt.Errorf("lint: import %s: %w", path, err)
	}
	return pkg, nil
}

// check type-checks one compile unit and returns the package with full
// expression/object information for the checks to consult.
func (l *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: type-check %s: %w", path, errs[0])
	}
	if err != nil {
		return nil, nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return pkg, info, nil
}

// topoOrder returns the discovered import paths so that every package
// appears after all of its module-internal dependencies.
func topoOrder(dirs map[string]*packageDir) []string {
	paths := make([]string, 0, len(dirs))
	for p := range dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	order := make([]string, 0, len(paths))
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(string)
	visit = func(p string) {
		if state[p] != 0 {
			return
		}
		state[p] = 1
		if pd, ok := dirs[p]; ok {
			deps := append([]string(nil), pd.baseImports...)
			sort.Strings(deps)
			for _, dep := range deps {
				if state[dep] != 1 { // tolerate cycles; type-check reports them
					visit(dep)
				}
			}
		}
		state[p] = 2
		order = append(order, p)
	}
	for _, p := range paths {
		visit(p)
	}
	return order
}
