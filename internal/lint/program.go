package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// unit is one type-checked compile unit retained for whole-program
// analysis: a package's base+test files, or its external test package.
type unit struct {
	path     string // import path of the unit (pkg, or pkg_test)
	files    []*ast.File
	pkg      *types.Package
	info     *types.Info
	internal bool
}

// Program is the whole-module view the interprocedural checks run over:
// every type-checked unit plus the call graph spanning them.
type Program struct {
	fset  *token.FileSet
	units []*unit
	graph *Graph
	// modPath is the module path of a whole-module load; empty when one
	// package is loaded alone (RunDir, ProgramDir).
	modPath string

	relpos func(token.Pos) (file string, line, col int)
}

// newProgram assembles the program and builds its call graph.
func newProgram(fset *token.FileSet, units []*unit, modPath string, relpos func(token.Pos) (string, int, int)) *Program {
	p := &Program{fset: fset, units: units, modPath: modPath, relpos: relpos}
	p.graph = buildGraph(p)
	return p
}

// Graph returns the program call graph.
func (p *Program) Graph() *Graph { return p.graph }

// Fset returns the program's file set.
//
//lint:ignore unused TestCallGraphReachability probes the program with it
func (p *Program) Fset() *token.FileSet { return p.fset }

// InTestFile reports whether pos sits in a *_test.go file.
func (p *Program) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.fset.Position(pos).Filename, "_test.go")
}

// GraphPass hands the whole program to one graph check.
type GraphPass struct {
	Prog *Program

	check  *Check
	report func(Finding)
}

// Reportf records one finding at pos.
func (gp *GraphPass) Reportf(pos token.Pos, format string, args ...any) {
	file, line, col := gp.Prog.relpos(pos)
	gp.report(Finding{
		File:    file,
		Line:    line,
		Col:     col,
		Check:   gp.check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// Info returns the type information of the node's compile unit.
func (n *Node) Info() *types.Info { return n.unit.info }

// Pkg returns the node's defining package.
//
//lint:ignore unused TestCallGraphReachability probes the graph with it
func (n *Node) Pkg() *types.Package { return n.unit.pkg }

// Internal reports whether the node lives in an internal/ library package.
//
//lint:ignore unused TestCallGraphReachability probes the graph with it
func (n *Node) Internal() bool { return n.unit.internal }

// runGraphChecks runs every selected graph check over the program and
// returns the raw findings (directive filtering happens in the caller,
// which owns the per-file directive indexes).
func runGraphChecks(prog *Program, checks []*Check) []Finding {
	var raw []Finding
	for _, c := range checks {
		if c.Graph == nil {
			continue
		}
		gp := &GraphPass{
			Prog:   prog,
			check:  c,
			report: func(f Finding) { raw = append(raw, f) },
		}
		c.Graph(gp)
	}
	return raw
}
