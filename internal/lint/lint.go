// Package lint implements cqmlint, the repo-specific static-analysis
// suite for the cqm module. It is built only on the standard library's
// go/ast, go/parser, go/token, and go/types: the driver discovers every
// package in the module, type-checks them in dependency order, and runs a
// registry of checks tuned to this codebase's invariants (float
// comparison hygiene, determinism of library packages, error handling,
// lock copying, the obs nil-guard idiom, and doc coverage).
//
// Individual findings can be waived in place with a directive comment on
// the offending line or the line above:
//
//	//lint:ignore check-name reason why this occurrence is safe
//
// The reason is mandatory; a malformed directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// Options configures one analyzer run.
type Options struct {
	// Dir is the directory from which the enclosing module is located.
	// Empty means the current directory.
	Dir string
	// Patterns restricts which packages are analyzed, relative to the
	// module root: "./..." (everything, the default), "./sub/..."
	// (subtree), or "./sub" (exact package directory).
	Patterns []string
	// Checks restricts which checks run; empty means all registered.
	Checks []string
}

// Run loads the module around opts.Dir and applies the configured checks
// to every package matching opts.Patterns. It returns the sorted findings;
// err is non-nil only for load/usage failures (findings are not errors).
func Run(opts Options) ([]Finding, error) {
	dir := opts.Dir
	if dir == "" {
		dir = "."
	}
	mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	dirs, err := discover(fset, mod)
	if err != nil {
		return nil, err
	}
	match, err := compilePatterns(mod, opts.Patterns)
	if err != nil {
		return nil, err
	}
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	ld := newLoader(fset, mod, dirs)
	relpos := relposFunc(fset, mod.Root)
	var findings []Finding
	var units []*unit
	directives := make(map[string]*directiveIndex)
	matchedDirs := make(map[string]bool)
	for _, path := range topoOrder(dirs) {
		pd, ok := dirs[path]
		if !ok {
			continue
		}
		matched := match(path)
		if matched {
			if rel, err := filepath.Rel(mod.Root, pd.Dir); err == nil {
				matchedDirs[filepath.ToSlash(rel)] = true
			}
		}
		// Every package is type-checked and collected so the call graph
		// spans the whole module; per-package findings are only reported
		// for matched packages.
		us, fs, err := runPackage(ld, pd, checks, matched, relpos, directives)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
		findings = append(findings, fs...)
	}
	prog := newProgram(fset, units, mod.Path, relpos)
	for _, f := range runGraphChecks(prog, checks) {
		dir := filepath.ToSlash(filepath.Dir(f.File))
		if !matchedDirs[dir] {
			continue
		}
		if idx, ok := directives[f.File]; ok && idx.suppresses(f.Check, f.Line) {
			continue
		}
		findings = append(findings, f)
	}
	SortFindings(findings)
	return findings, nil
}

// relposFunc renders positions relative to root so findings are stable
// across machines.
func relposFunc(fset *token.FileSet, root string) func(token.Pos) (string, int, int) {
	return func(pos token.Pos) (string, int, int) {
		p := fset.Position(pos)
		file := p.Filename
		if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		return file, p.Line, p.Column
	}
}

// RunDir analyzes the single package rooted at dir (plus its external test
// package, if any) outside any module context — the entry point the golden
// testdata corpus uses. internal toggles the internal-library scoping some
// checks apply; findings use paths relative to dir. A dir holding its own
// go.mod is analyzed as that whole module instead, for the checks that need
// one (unused wants the module's mains and root package).
//
//lint:ignore unused the golden corpus tests run each fixture through it
func RunDir(dir string, checkNames []string, internal bool) ([]Finding, error) {
	if isModuleDir(dir) {
		return Run(Options{Dir: dir, Checks: checkNames})
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	checks, err := selectChecks(checkNames)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := module{Root: abs, Path: "example.test/pkg"}
	pd := &packageDir{Dir: abs, ImportPath: mod.Path}
	entries, err := filepath.Glob(filepath.Join(abs, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, path := range entries {
		if err := pd.addFile(fset, path, mod); err != nil {
			return nil, err
		}
	}
	if len(pd.Base) == 0 && len(pd.Tests) == 0 && len(pd.XTest) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	ld := newLoader(fset, mod, map[string]*packageDir{mod.Path: pd})
	relpos := relposFunc(fset, abs)
	directives := make(map[string]*directiveIndex)
	units, findings, err := runPackageScoped(ld, pd, checks, internal, true, relpos, directives)
	if err != nil {
		return nil, err
	}
	prog := newProgram(fset, units, "", relpos)
	for _, f := range runGraphChecks(prog, checks) {
		if idx, ok := directives[f.File]; ok && idx.suppresses(f.Check, f.Line) {
			continue
		}
		findings = append(findings, f)
	}
	SortFindings(findings)
	return findings, nil
}

// ProgramDir loads the single package rooted at dir like RunDir (or, like
// RunDir, the module a go.mod in dir declares) and returns the
// whole-program view — the call-graph golden tests consume its Dump.
//
//lint:ignore unused the call-graph tests load their fixtures through it
func ProgramDir(dir string) (*Program, error) {
	if isModuleDir(dir) {
		return loadProgram(dir)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	mod := module{Root: abs, Path: "example.test/pkg"}
	pd := &packageDir{Dir: abs, ImportPath: mod.Path}
	entries, err := filepath.Glob(filepath.Join(abs, "*.go"))
	if err != nil {
		return nil, err
	}
	for _, path := range entries {
		if err := pd.addFile(fset, path, mod); err != nil {
			return nil, err
		}
	}
	if len(pd.Base)+len(pd.Tests)+len(pd.XTest) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	ld := newLoader(fset, mod, map[string]*packageDir{mod.Path: pd})
	relpos := relposFunc(fset, abs)
	units, _, err := runPackageScoped(ld, pd, nil, true, false, relpos, make(map[string]*directiveIndex))
	if err != nil {
		return nil, err
	}
	return newProgram(fset, units, "", relpos), nil
}

// isModuleDir reports whether dir holds a go.mod of its own.
func isModuleDir(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}

// runPackage analyzes one discovered package directory: the base unit
// augmented with its in-package tests, then the external test unit.
func runPackage(ld *loader, pd *packageDir, checks []*Check, matched bool, relpos func(token.Pos) (string, int, int), directives map[string]*directiveIndex) ([]*unit, []Finding, error) {
	internal := strings.Contains(pd.ImportPath, "/internal/") ||
		strings.HasSuffix(pd.ImportPath, "/internal")
	return runPackageScoped(ld, pd, checks, internal, matched, relpos, directives)
}

func runPackageScoped(ld *loader, pd *packageDir, checks []*Check, internal, matched bool, relpos func(token.Pos) (string, int, int), directives map[string]*directiveIndex) ([]*unit, []Finding, error) {
	var findings []Finding
	var units []*unit
	if len(pd.Base)+len(pd.Tests) > 0 {
		files := append(append([]*ast.File(nil), pd.Base...), pd.Tests...)
		u, fs, err := runUnit(ld, pd.ImportPath, files, checks, internal, matched, relpos, directives)
		if err != nil {
			return nil, nil, err
		}
		units = append(units, u)
		findings = append(findings, fs...)
	}
	if len(pd.XTest) > 0 {
		u, fs, err := runUnit(ld, pd.ImportPath+"_test", pd.XTest, checks, internal, matched, relpos, directives)
		if err != nil {
			return nil, nil, err
		}
		units = append(units, u)
		findings = append(findings, fs...)
	}
	return units, findings, nil
}

// runUnit type-checks one compile unit, records its //lint:ignore
// directives into the shared index, and — when the package is matched —
// runs every per-package check over it and filters the raw findings
// through the directives. The returned unit feeds the whole-program phase.
func runUnit(ld *loader, path string, files []*ast.File, checks []*Check, internal, matched bool, relpos func(token.Pos) (string, int, int), directives map[string]*directiveIndex) (*unit, []Finding, error) {
	pkg, info, err := ld.check(path, files)
	if err != nil {
		return nil, nil, err
	}
	u := &unit{path: path, files: files, pkg: pkg, info: info, internal: internal}

	var raw []Finding
	report := func(f Finding) { raw = append(raw, f) }

	// Directive scan first: malformed directives surface even in clean code.
	for _, file := range files {
		name, _, _ := relpos(file.Pos())
		reportAt := func(pos token.Pos, check, msg string) {
			if !matched {
				return
			}
			f, line, col := relpos(pos)
			report(Finding{File: f, Line: line, Col: col, Check: check, Message: msg})
		}
		idx := parseDirectives(ld.fset, file, reportAt)
		directives[name] = &idx
	}
	if !matched {
		return u, nil, nil
	}

	for _, c := range checks {
		if c.Run == nil {
			continue
		}
		pass := &Pass{
			Fset:     ld.fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			PkgPath:  path,
			Internal: internal,
			check:    c,
			report:   report,
			relpos:   relpos,
		}
		c.Run(pass)
	}

	kept := raw[:0]
	for _, f := range raw {
		if idx, ok := directives[f.File]; ok && idx.suppresses(f.Check, f.Line) {
			continue
		}
		kept = append(kept, f)
	}
	return u, kept, nil
}

// compilePatterns converts CLI package patterns into a matcher over module
// import paths.
func compilePatterns(mod module, patterns []string) (func(string) bool, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	type rule struct {
		prefix string // import path prefix for "..." rules
		exact  string // exact import path otherwise
	}
	var rules []rule
	for _, pat := range patterns {
		p := filepath.ToSlash(pat)
		p = strings.TrimPrefix(p, "./")
		all := false
		if rest, ok := strings.CutSuffix(p, "..."); ok {
			all = true
			p = strings.TrimSuffix(rest, "/")
		}
		ip := mod.Path
		if p != "" && p != "." {
			ip = mod.Path + "/" + strings.Trim(p, "/")
		}
		if all {
			rules = append(rules, rule{prefix: ip})
		} else {
			rules = append(rules, rule{exact: ip})
		}
	}
	return func(importPath string) bool {
		for _, r := range rules {
			if r.exact != "" && importPath == r.exact {
				return true
			}
			if r.prefix != "" && (importPath == r.prefix || strings.HasPrefix(importPath, r.prefix+"/")) {
				return true
			}
		}
		return false
	}, nil
}

// selectChecks resolves check names, defaulting to the full registry.
func selectChecks(names []string) ([]*Check, error) {
	if len(names) == 0 {
		return Checks(), nil
	}
	out := make([]*Check, 0, len(names))
	for _, name := range names {
		c := CheckByName(name)
		if c == nil {
			return nil, fmt.Errorf("lint: unknown check %q", name)
		}
		out = append(out, c)
	}
	return out, nil
}
