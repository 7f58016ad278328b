package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

func init() {
	register(&Check{
		Name:  "unused",
		Doc:   "every declared non-test function is reached from a main, an init, a package initializer or the root package's API",
		Graph: runUnused,
	})
}

// implicitMethods are the method names the standard library calls
// through its own interfaces (fmt, errors, encoding/json, encoding,
// net/http, sort, io), so no call site in the module names them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// runUnused walks the call graph, pragmas ignored, from the roots a
// build of the module can run or a user of it can call:
//
//   - every main and init, and every package's var initializers;
//   - the exported functions and methods of the root package;
//   - the exported methods of the types the root package re-exports as
//     aliases (cqm.Measure = core.Measure);
//   - methods the standard library calls implicitly (implicitMethods).
//
// Each non-test declared function the walk misses is reported: delete
// it, or waive it with //lint:ignore unused and the reason it stays (a
// test of kept behaviour probes it, or a caller outside the module uses
// it). A waived function is kept, so it roots the walk too and its
// callees need no waiver of their own. A single package loaded alone has
// no program around it, so the check needs a whole-module load.
func runUnused(gp *GraphPass) {
	prog := gp.Prog
	if prog.modPath == "" {
		return
	}
	g := prog.Graph()
	var roots []*Node
	for _, n := range g.Nodes() {
		if isUnusedRoot(prog, n) {
			roots = append(roots, n)
		}
	}
	for _, u := range prog.units {
		if u.path != prog.modPath {
			continue
		}
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() || !tn.Exported() || prog.InTestFile(tn.Pos()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
					roots = append(roots, g.NodeByKey(funcKey(fn)))
				}
			}
		}
	}
	reached := g.reach(roots, true, false)
	for _, n := range g.Nodes() {
		if _, ok := reached[n]; ok || n.Decl == nil || prog.InTestFile(n.Pos()) {
			continue
		}
		gp.Reportf(n.Pos(), "%s is reached from no main, init, package initializer or root API; delete it or waive it with the reason it stays", n.Key)
	}
}

// isUnusedRoot reports whether n is itself a root of the unused walk.
// Declarations in test files never are: a function only a test calls is
// unreached.
func isUnusedRoot(prog *Program, n *Node) bool {
	if prog.InTestFile(n.Pos()) {
		return false
	}
	if n.Decl == nil {
		return n.Lit == nil // the package's var initializers
	}
	if waivesUnused(n.Decl.Doc) {
		return true
	}
	name := n.Decl.Name.Name
	if n.Decl.Recv != nil {
		return implicitMethods[name] || (n.unit.path == prog.modPath && ast.IsExported(name))
	}
	switch {
	case name == "init":
		return true
	case name == "main":
		return n.unit.pkg.Name() == "main"
	}
	return n.unit.path == prog.modPath && ast.IsExported(name)
}

// waivesUnused reports whether a doc comment ends in a //lint:ignore
// directive naming the unused check: the one line that waives the
// declaration below it.
func waivesUnused(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	text, ok := directiveText(doc.List[len(doc.List)-1].Text)
	if !ok {
		return false
	}
	fields := strings.Fields(text)
	return len(fields) >= 2 && (directive{checks: fields[0]}).matches("unused")
}
