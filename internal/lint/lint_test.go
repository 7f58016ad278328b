package lint

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata expected.txt goldens")

// goldenCases pairs each testdata package with the checks it exercises.
// Every check has at least one positive (bad) and one negative (good) case.
var goldenCases = []struct {
	dir      string   // under testdata/
	checks   []string // nil means the full registry
	internal bool
}{
	{dir: "floatcmp/bad", checks: []string{"floatcmp"}, internal: true},
	{dir: "floatcmp/good", checks: []string{"floatcmp"}, internal: true},
	{dir: "nondeterminism/bad", checks: []string{"nondeterminism"}, internal: true},
	{dir: "nondeterminism/good", checks: []string{"nondeterminism"}, internal: true},
	{dir: "nondeterminism/notinternal", checks: []string{"nondeterminism"}, internal: false},
	{dir: "unchecked-err/bad", checks: []string{"unchecked-err"}, internal: true},
	{dir: "unchecked-err/good", checks: []string{"unchecked-err"}, internal: true},
	{dir: "mutexcopy-lite/bad", checks: []string{"mutexcopy-lite"}, internal: true},
	{dir: "mutexcopy-lite/good", checks: []string{"mutexcopy-lite"}, internal: true},
	{dir: "obs-nilsafe/bad", checks: []string{"obs-nilsafe"}, internal: true},
	{dir: "obs-nilsafe/good", checks: []string{"obs-nilsafe"}, internal: true},
	{dir: "exported-doc/bad", checks: []string{"exported-doc"}, internal: true},
	{dir: "exported-doc/good", checks: []string{"exported-doc"}, internal: true},
	{dir: "seeded-rand/bad", checks: []string{"seeded-rand"}, internal: true},
	{dir: "seeded-rand/good", checks: []string{"seeded-rand"}, internal: true},
	{dir: "atomic-artifact/bad", checks: []string{"atomic-artifact"}, internal: true},
	{dir: "atomic-artifact/good", checks: []string{"atomic-artifact"}, internal: true},
	{dir: "adapt-journal/bad", checks: []string{"adapt-journal"}, internal: true},
	{dir: "adapt-journal/good", checks: []string{"adapt-journal"}, internal: true},
	{dir: "conn-deadline/bad", checks: []string{"conn-deadline"}, internal: true},
	{dir: "conn-deadline/good", checks: []string{"conn-deadline"}, internal: true},
	{dir: "directive/suppressed", internal: true},
	{dir: "directive/partial", internal: true},
	{dir: "directive/malformed", internal: true},
	// The graph-powered checks run on internal=false fixtures on purpose:
	// the interprocedural walks do not depend on the internal heuristics,
	// and the determinism-taint bad case doubles as the acceptance test
	// that the old syntactic nondeterminism check misses laundered leaks.
	{dir: "determinism-taint/bad", checks: []string{"determinism-taint"}, internal: false},
	{dir: "determinism-taint/good", checks: []string{"determinism-taint"}, internal: false},
	{dir: "hotpath-alloc/bad", checks: []string{"hotpath-alloc"}, internal: false},
	{dir: "hotpath-alloc/good", checks: []string{"hotpath-alloc"}, internal: false},
	{dir: "lock-discipline/bad", checks: []string{"lock-discipline"}, internal: false},
	{dir: "lock-discipline/good", checks: []string{"lock-discipline"}, internal: false},
	// The unused fixtures are whole modules (each dir holds a go.mod): the
	// check's roots are the module's mains and its root package.
	{dir: "unused/bad", checks: []string{"unused"}},
	{dir: "unused/good", checks: []string{"unused"}},
}

func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		tc := tc
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			findings, err := RunDir(dir, tc.checks, tc.internal)
			if err != nil {
				t.Fatalf("RunDir(%s): %v", dir, err)
			}
			var buf bytes.Buffer
			if err := WriteText(&buf, findings); err != nil {
				t.Fatal(err)
			}
			got := buf.String()

			golden := filepath.Join(dir, "expected.txt")
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
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestGoldenPolarity pins the corpus's intent: every bad/ package yields at
// least one finding, every good/ package yields none, so a regression that
// silences a check cannot hide behind a stale golden.
func TestGoldenPolarity(t *testing.T) {
	for _, tc := range goldenCases {
		dir := filepath.Join("testdata", tc.dir)
		findings, err := RunDir(dir, tc.checks, tc.internal)
		if err != nil {
			t.Fatalf("RunDir(%s): %v", dir, err)
		}
		base := filepath.Base(tc.dir)
		switch base {
		case "bad", "malformed", "partial":
			if len(findings) == 0 {
				t.Errorf("%s: want at least one finding, got none", tc.dir)
			}
		case "good", "suppressed", "notinternal":
			if len(findings) != 0 {
				t.Errorf("%s: want no findings, got %d:\n%v", tc.dir, len(findings), findings)
			}
		}
	}
}

// TestSelfClean runs the full suite over the module itself: the repo must
// lint clean at all times, since CI gates on it.
func TestSelfClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(Options{Dir: root})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(findings) != 0 {
		var sb strings.Builder
		for _, f := range findings {
			sb.WriteString(f.String())
			sb.WriteString("\n")
		}
		t.Errorf("module is not lint-clean (%d findings):\n%s", len(findings), sb.String())
	}
}

func TestUnknownCheck(t *testing.T) {
	if _, err := RunDir(filepath.Join("testdata", "floatcmp", "good"), []string{"no-such-check"}, true); err == nil {
		t.Fatal("want error for unknown check name, got nil")
	}
}
