package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// EdgeKind classifies one call-graph edge by how the callee was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a named function or a method on a
	// concrete receiver.
	EdgeStatic EdgeKind = iota
	// EdgeIface is a conservative interface-dispatch edge: a call through
	// an interface method linked to every in-program concrete method that
	// implements it.
	EdgeIface
	// EdgeRef records that a function value was taken (method value,
	// function passed as a callback, or a func literal declared in the
	// body): the referer may cause the referee to run.
	EdgeRef
)

// String renders the edge kind for dumps and diagnostics.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	default:
		return "ref"
	}
}

// Node is one function in the program call graph: a declared function or
// method, or a function literal.
type Node struct {
	// Key is the canonical cross-package identity, e.g.
	// cqm/internal/core.(*Measure).ScoreBatch or cqm/internal/eval.Render$1
	// for the first func literal inside Render.
	Key string
	// Fn is the type object; nil for function literals.
	Fn *types.Func
	// Body is the function body (never nil; bodiless declarations get no
	// node).
	Body *ast.BlockStmt
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declared functions.
	Lit *ast.FuncLit
	// Unit is the compile unit the node was parsed from.
	unit *unit
	// Hot and Cold record the //cqm:hotpath and //cqm:coldpath pragmas on
	// the declaration's doc comment.
	Hot, Cold bool

	out map[*Node]EdgeKind
}

// Pos returns the node's declaration position.
func (n *Node) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// End returns the node's end position.
func (n *Node) End() token.Pos {
	if n.Decl != nil {
		return n.Decl.End()
	}
	return n.Lit.End()
}

// addEdge records caller→callee, keeping the strongest resolution kind
// (static over iface over ref) when an edge is recorded more than once.
func (n *Node) addEdge(to *Node, kind EdgeKind) {
	if to == nil {
		return
	}
	if prev, ok := n.out[to]; !ok || kind < prev {
		n.out[to] = kind
	}
}

// Edges returns the node's outgoing edges sorted by callee key.
func (n *Node) Edges() []Edge {
	out := make([]Edge, 0, len(n.out))
	for to, kind := range n.out {
		out = append(out, Edge{To: to, Kind: kind})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].To.Key < out[j].To.Key })
	return out
}

// Edge is one outgoing call-graph edge.
type Edge struct {
	To   *Node
	Kind EdgeKind
}

// Graph is the program call graph: one node per function body, edges for
// static calls, conservative interface dispatch, and function-value
// references.
type Graph struct {
	nodes map[string]*Node
}

// NodeByKey returns the node with the given canonical key, or nil.
func (g *Graph) NodeByKey(key string) *Node { return g.nodes[key] }

// Nodes returns every node sorted by key.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// funcKey renders the canonical cross-package identity of a declared
// function or method. Duplicate type-checks of the same package (a base
// unit checked once for import resolution and once with its tests) yield
// distinct *types.Func objects, so graph identity must be by name.
func funcKey(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig != nil && sig.Recv() != nil {
		return pkg + "." + recvString(sig.Recv().Type()) + "." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// recvString renders a receiver type as (T) or (*T).
func recvString(t types.Type) string {
	ptr := false
	if p, ok := t.(*types.Pointer); ok {
		ptr = true
		t = p.Elem()
	}
	name := "?"
	switch t := t.(type) {
	case *types.Named:
		name = t.Obj().Name()
	case *types.Basic:
		name = t.Name()
	}
	if ptr {
		return "(*" + name + ")"
	}
	return "(" + name + ")"
}

// buildGraph constructs the call graph over the program's units.
func buildGraph(prog *Program) *Graph {
	g := &Graph{nodes: make(map[string]*Node)}

	// Pass 1: one node per declared function body, pragmas parsed from the
	// doc comment. Later units win on key collision (the base+tests unit is
	// processed once; collisions only occur for identically named decls in
	// a package and its external test unit, where either body is fine).
	type declared struct {
		n *Node
		u *unit
	}
	var all []declared
	for _, u := range prog.units {
		for _, file := range u.files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{
					Key:  funcKey(obj),
					Fn:   obj,
					Body: fd.Body,
					Decl: fd,
					unit: u,
					out:  make(map[*Node]EdgeKind),
				}
				n.Hot, n.Cold = pragmas(fd.Doc)
				g.nodes[n.Key] = n
				all = append(all, declared{n, u})
			}
		}
	}

	// Concrete named types across all units, for interface dispatch.
	var concrete []*types.Named
	for _, u := range prog.units {
		scope := u.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			concrete = append(concrete, named)
		}
	}

	// Pass 2: edges. Function literals become nodes as they are found.
	for _, d := range all {
		walkBody(g, d.n, concrete)
	}
	return g
}

// pragmas scans a doc comment for the //cqm:hotpath and //cqm:coldpath
// annotations.
func pragmas(doc *ast.CommentGroup) (hot, cold bool) {
	if doc == nil {
		return false, false
	}
	for _, c := range doc.List {
		switch strings.TrimSpace(c.Text) {
		case "//cqm:hotpath":
			hot = true
		case "//cqm:coldpath":
			cold = true
		}
	}
	return hot, cold
}

// walkBody adds the outgoing edges of one node, creating nodes for nested
// function literals (edged from their enclosing function as refs, since
// declaring a closure hands its caller the means to run it).
func walkBody(g *Graph, n *Node, concrete []*types.Named) {
	u := n.unit
	// Pre-pass: identifiers that are the Fun of a call in this body (not
	// inside nested literals) resolve through addCallEdges, not as refs.
	funIdents := make(map[*ast.Ident]bool)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if lit, ok := node.(*ast.FuncLit); ok && lit != n.Lit {
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				funIdents[fun] = true
			case *ast.SelectorExpr:
				funIdents[fun.Sel] = true
			}
		}
		return true
	})
	lits := 0
	ast.Inspect(n.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			if node == n.Lit {
				return true
			}
			lits++
			child := &Node{
				Key:  fmt.Sprintf("%s$%d", n.Key, lits),
				Body: node.Body,
				Lit:  node,
				unit: u,
				out:  make(map[*Node]EdgeKind),
			}
			g.nodes[child.Key] = child
			n.addEdge(child, EdgeRef)
			walkBody(g, child, concrete)
			return false // the recursive walk covered the literal's body
		case *ast.CallExpr:
			addCallEdges(g, n, node, concrete)
		case *ast.Ident:
			// A function name in non-call position: a reference.
			if fn, ok := u.info.Uses[node].(*types.Func); ok && !funIdents[node] {
				n.addEdge(g.nodes[funcKey(fn)], EdgeRef)
			}
		}
		return true
	})
}

// addCallEdges resolves one call expression into graph edges.
func addCallEdges(g *Graph, n *Node, call *ast.CallExpr, concrete []*types.Named) {
	u := n.unit
	fun := ast.Unparen(call.Fun)
	switch fun := fun.(type) {
	case *ast.Ident:
		if fn, ok := u.info.Uses[fun].(*types.Func); ok {
			n.addEdge(g.nodes[funcKey(fn)], EdgeStatic)
		}
	case *ast.SelectorExpr:
		fn, ok := u.info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return
		}
		if sel, ok := u.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			recv := sel.Recv()
			if iface, ok := recv.Underlying().(*types.Interface); ok {
				addIfaceEdges(g, n, iface, fn, concrete)
				return
			}
		}
		n.addEdge(g.nodes[funcKey(fn)], EdgeStatic)
	}
}

// addIfaceEdges links an interface-method call to every in-program
// concrete method implementing it — the conservative dispatch
// approximation: any implementor may be behind the interface.
func addIfaceEdges(g *Graph, n *Node, iface *types.Interface, method *types.Func, concrete []*types.Named) {
	for _, named := range concrete {
		ms := types.NewMethodSet(types.NewPointer(named))
		if !implements(ms, iface) {
			continue
		}
		impl, ok := ms.Lookup(method.Pkg(), method.Name()).Obj().(*types.Func)
		if !ok {
			continue
		}
		if to := g.nodes[funcKey(impl)]; to != nil {
			n.addEdge(to, EdgeIface)
		}
	}
}

// implements reports whether the method set has every method of iface.
// Each unit is type-checked on its own, so one module type can be two
// distinct objects in two units (a package's own unit and the copy its
// importers see), and types.Implements would miss an implementation whose
// signature names such a type. Signatures are compared as text qualified
// by package path instead.
func implements(ms *types.MethodSet, iface *types.Interface) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || sigText(sel.Obj().Type()) != sigText(m.Type()) {
			return false
		}
	}
	return true
}

// sigText renders a method signature's parameter and result types, with
// package-path qualifiers and without parameter names.
func sigText(t types.Type) string {
	sig, ok := t.(*types.Signature)
	if !ok {
		return ""
	}
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tup := range [...]*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tup.Len(); i++ {
			b.WriteString(types.TypeString(tup.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// Reachable walks the graph from the given roots and returns, for every
// reached node, its predecessor on the discovery path (roots map to nil).
// Cold nodes terminate the walk: their bodies are treated as off the path.
// followRefs controls whether function-value reference edges are followed.
func (g *Graph) Reachable(roots []*Node, followRefs bool) map[*Node]*Node {
	parent := make(map[*Node]*Node)
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if _, ok := parent[r]; ok || r == nil {
			continue
		}
		parent[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.Cold {
			continue
		}
		for _, e := range cur.Edges() {
			if e.Kind == EdgeRef && !followRefs {
				continue
			}
			if _, seen := parent[e.To]; seen {
				continue
			}
			parent[e.To] = cur
			queue = append(queue, e.To)
		}
	}
	return parent
}

// RootPath renders the discovery path from a root to n, e.g.
// "A → B → C", using the parent map from Reachable.
func RootPath(parent map[*Node]*Node, n *Node) string {
	var keys []string
	for cur := n; cur != nil; cur = parent[cur] {
		keys = append(keys, cur.Key)
		if len(keys) > 32 {
			break
		}
	}
	for i, j := 0, len(keys)-1; i < j; i, j = i+1, j-1 {
		keys[i], keys[j] = keys[j], keys[i]
	}
	return strings.Join(keys, " → ")
}

// Dump renders the graph deterministically for golden tests: one line per
// node sorted by key, indented lines per outgoing edge sorted by callee.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, n := range g.Nodes() {
		sb.WriteString(n.Key)
		var marks []string
		if n.Hot {
			marks = append(marks, "hotpath")
		}
		if n.Cold {
			marks = append(marks, "coldpath")
		}
		if len(marks) > 0 {
			sb.WriteString(" [" + strings.Join(marks, ",") + "]")
		}
		sb.WriteString("\n")
		for _, e := range n.Edges() {
			fmt.Fprintf(&sb, "  -> %s [%s]\n", e.To.Key, e.Kind)
		}
	}
	return sb.String()
}
