package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCallGraphGolden pins the builder's output shape on a fixture that
// holds every edge kind: static calls, interface dispatch fan-out,
// method-value and literal references, recursion, and pragmas.
func TestCallGraphGolden(t *testing.T) {
	dir := filepath.Join("testdata", "callgraph", "basic")
	prog, err := ProgramDir(dir)
	if err != nil {
		t.Fatalf("ProgramDir(%s): %v", dir, err)
	}
	got := prog.Graph().Dump()

	golden := filepath.Join(dir, "graph.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("graph dump mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCallGraphReachability checks the hot-root walk: reference edges
// pull in literals and the functions they close over, interface dispatch
// fans out to every implementation, and //cqm:coldpath stops descent.
func TestCallGraphReachability(t *testing.T) {
	prog, err := ProgramDir(filepath.Join("testdata", "callgraph", "basic"))
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Graph()
	var roots []*Node
	for _, n := range g.Nodes() {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	if len(roots) != 1 || !strings.HasSuffix(roots[0].Key, ".Hot") {
		t.Fatalf("want exactly the Hot root, got %v", roots)
	}
	root := roots[0]
	if root.Pkg() == nil || root.Pkg().Name() != "basic" {
		t.Errorf("root package = %v, want basic", root.Pkg())
	}
	if !root.Internal() {
		t.Errorf("ProgramDir loads fixtures as internal units; Internal() = false")
	}
	if prog.Fset() == nil || !root.End().IsValid() || root.End() <= root.Pos() {
		t.Errorf("node extent malformed: Pos=%v End=%v", root.Pos(), root.End())
	}
	parent := g.Reachable(roots, true)

	reached := func(suffix string) *Node {
		for n := range parent {
			if strings.HasSuffix(n.Key, suffix) {
				return n
			}
		}
		return nil
	}
	for _, suffix := range []string{".Hot$1", ".Recurse", ".UseIface", "(A).Do", "(*B).Do"} {
		if reached(suffix) == nil {
			t.Errorf("node %q not reachable from Hot", suffix)
		}
	}
	if n := reached(".Cold"); n != nil {
		t.Errorf("Cold reached from Hot via %q", RootPath(parent, n))
	}

	rec := reached(".Recurse")
	path := RootPath(parent, rec)
	if !strings.Contains(path, ".Hot") || !strings.HasSuffix(path, ".Recurse") {
		t.Errorf("RootPath(Recurse) = %q, want a Hot→…→Recurse chain", path)
	}

	// Without reference edges the literal (and the recursion behind it)
	// drops out, but the direct static call chain must remain.
	noRefs := g.Reachable(roots, false)
	for n := range noRefs {
		if strings.HasSuffix(n.Key, ".Hot$1") {
			t.Errorf("literal reached with followRefs=false")
		}
	}
	found := false
	for n := range noRefs {
		if strings.HasSuffix(n.Key, ".UseIface") {
			found = true
		}
	}
	if !found {
		t.Errorf("static callee UseIface not reached with followRefs=false")
	}
}

// TestCallGraphCrossUnitDispatch checks interface dispatch across compile
// units. Each unit is type-checked on its own, so the external test unit
// sees its own copy of crossunit.Decision; the call through its interface
// must still link to (*Sink).Decide in the package's unit.
func TestCallGraphCrossUnitDispatch(t *testing.T) {
	prog, err := ProgramDir(filepath.Join("testdata", "callgraph", "crossunit"))
	if err != nil {
		t.Fatal(err)
	}
	g := prog.Graph()
	use := g.NodeByKey("example.test/pkg_test.use")
	if use == nil {
		t.Fatal("no node for the external test unit's use")
	}
	for _, e := range use.Edges() {
		if e.To.Key == "example.test/pkg.(*Sink).Decide" && e.Kind == EdgeIface {
			return
		}
	}
	t.Errorf("use has edges %v, want an iface edge to (*Sink).Decide", use.Edges())
}

// FuzzCallGraph feeds hostile sources through the full load→type-check→
// build pipeline: inputs that fail to parse or type-check are skipped;
// everything that compiles must produce a graph without panicking, with
// a dump that mentions every declared node, and with a reachability walk
// that terminates.
func FuzzCallGraph(f *testing.F) {
	for _, fixture := range []string{
		filepath.Join("testdata", "callgraph", "basic", "basic.go"),
		filepath.Join("testdata", "determinism-taint", "bad", "bad.go"),
		filepath.Join("testdata", "lock-discipline", "bad", "bad.go"),
	} {
		data, err := os.ReadFile(fixture)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("package p\n\nfunc a() { b() }\nfunc b() { a() }\n")
	f.Add("package p\n\ntype I interface{ M() }\ntype T struct{}\nfunc (T) M() {}\nfunc u(i I) { i.M() }\n")
	f.Fuzz(func(t *testing.T, src string) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fuzztarget\n\ngo 1.24\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fuzz.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		prog, err := ProgramDir(dir)
		if err != nil {
			return // does not parse or type-check; not our concern
		}
		g := prog.Graph()
		dump := g.Dump()
		for _, n := range g.Nodes() {
			if !strings.Contains(dump, n.Key) {
				t.Errorf("dump is missing node %q", n.Key)
			}
		}
		g.Reachable(g.Nodes(), true)
	})
}
