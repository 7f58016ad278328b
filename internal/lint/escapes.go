package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// EscapeBudgetFile is the checked-in budget, relative to the module root.
const EscapeBudgetFile = "ESCAPES.json"

// EscapeEntry is one aggregated compiler escape diagnostic attributed to a
// hot-path function: the count of "escapes to heap"/"moved to heap"
// messages with the given text inside that function. Line numbers are
// deliberately dropped so unrelated edits do not churn the budget.
type EscapeEntry struct {
	File  string `json:"file"`
	Func  string `json:"func"`
	Text  string `json:"text"`
	Count int    `json:"count"`
}

// escapeBudget is the on-disk shape of ESCAPES.json.
type escapeBudget struct {
	Comment string        `json:"comment"`
	Entries []EscapeEntry `json:"entries"`
}

// EscapeResult is the outcome of one -escapes run.
type EscapeResult struct {
	// Root is the module root the budget file lives in.
	Root string
	// Entries are the current hot-path escapes, sorted.
	Entries []EscapeEntry
	// Regressions are escapes above budget (new sites or grown counts).
	Regressions []string
	// Improvements are budget lines the code no longer produces; they mean
	// the budget can be ratcheted down with -update-escapes.
	Improvements []string
}

// RunEscapes compiles the module with -gcflags=-m, attributes the escape
// diagnostics to functions reachable from //cqm:hotpath roots, and diffs
// them against the checked-in budget. With update set, the budget file is
// rewritten to match the current state instead.
func RunEscapes(dir string, update bool) (*EscapeResult, error) {
	if dir == "" {
		dir = "."
	}
	mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	prog, err := loadProgram(dir)
	if err != nil {
		return nil, err
	}
	entries, err := collectEscapes(prog, mod.Root)
	if err != nil {
		return nil, err
	}
	res := &EscapeResult{Root: mod.Root, Entries: entries}
	budgetPath := filepath.Join(mod.Root, EscapeBudgetFile)
	if update {
		return res, writeEscapeBudget(budgetPath, entries)
	}
	budget, err := readEscapeBudget(budgetPath)
	if err != nil {
		return nil, err
	}
	res.Regressions, res.Improvements = diffEscapes(budget, entries)
	return res, nil
}

// collectEscapes runs the compiler and keeps diagnostics inside hot-path
// function extents.
func collectEscapes(prog *Program, root string) ([]EscapeEntry, error) {
	ranges := hotRanges(prog)
	if len(ranges) == 0 {
		return nil, nil
	}
	cmd := exec.Command("go", "build", "-gcflags=-m", "./...")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: go build -gcflags=-m failed: %v\n%s", err, out)
	}
	counts := make(map[EscapeEntry]int)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		file, line, text, ok := parseDiagnostic(sc.Text())
		if !ok {
			continue
		}
		if !strings.Contains(text, "escapes to heap") && !strings.Contains(text, "moved to heap") {
			continue
		}
		for _, r := range ranges[file] {
			if line >= r.start && line <= r.end {
				counts[EscapeEntry{File: file, Func: r.key, Text: text}]++
				break
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	entries := make([]EscapeEntry, 0, len(counts))
	for e, n := range counts {
		e.Count = n
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Text < b.Text
	})
	return entries, nil
}

// fnRange is one hot-path function's line extent within a file.
type fnRange struct {
	start, end int
	key        string
}

// hotRanges maps module-relative file paths to the extents of functions
// reachable from //cqm:hotpath roots.
func hotRanges(prog *Program) map[string][]fnRange {
	g := prog.Graph()
	var roots []*Node
	for _, n := range g.Nodes() {
		if n.Hot {
			roots = append(roots, n)
		}
	}
	parent := g.Reachable(roots, true)
	out := make(map[string][]fnRange)
	for _, n := range g.Nodes() {
		if _, ok := parent[n]; !ok || n.Body == nil || n.Cold {
			continue
		}
		file, start, _ := prog.relpos(n.Pos())
		_, end, _ := prog.relpos(n.End())
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		key := n.Key
		// Literals share their enclosing declaration's attribution only
		// when the enclosing function is itself off-path, so keep the
		// literal key: it names the closure precisely.
		out[file] = append(out[file], fnRange{start: start, end: end, key: key})
	}
	// Narrower ranges first so literals win over their enclosing function.
	for f := range out {
		rs := out[f]
		sort.Slice(rs, func(i, j int) bool { return rs[i].end-rs[i].start < rs[j].end-rs[j].start })
	}
	return out
}

// parseDiagnostic splits a `file:line:col: text` compiler line.
func parseDiagnostic(s string) (file string, line int, text string, ok bool) {
	parts := strings.SplitN(s, ":", 4)
	if len(parts) != 4 {
		return "", 0, "", false
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil {
		return "", 0, "", false
	}
	if _, err := strconv.Atoi(parts[2]); err != nil {
		return "", 0, "", false
	}
	return filepath.ToSlash(parts[0]), n, strings.TrimSpace(parts[3]), true
}

// readEscapeBudget loads ESCAPES.json; a missing file is an empty budget
// (every hot-path escape then reads as a regression until -update-escapes
// records the baseline).
func readEscapeBudget(path string) ([]EscapeEntry, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var b escapeBudget
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
	}
	return b.Entries, nil
}

// writeEscapeBudget rewrites ESCAPES.json with the current state.
func writeEscapeBudget(path string, entries []EscapeEntry) error {
	b := escapeBudget{
		Comment: "Escape-analysis budget for //cqm:hotpath functions. Regenerate with: go run ./cmd/cqmlint -update-escapes",
		Entries: entries,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// diffEscapes compares current escapes against the budget: counts above
// budget are regressions, budgeted lines no longer produced are
// improvements.
func diffEscapes(budget, current []EscapeEntry) (regressions, improvements []string) {
	type key struct{ file, fn, text string }
	bm := make(map[key]int, len(budget))
	for _, e := range budget {
		bm[key{e.File, e.Func, e.Text}] += e.Count
	}
	cm := make(map[key]int, len(current))
	for _, e := range current {
		cm[key{e.File, e.Func, e.Text}] += e.Count
	}
	keys := make(map[key]bool, len(bm)+len(cm))
	for k := range bm {
		keys[k] = true
	}
	for k := range cm {
		keys[k] = true
	}
	ordered := make([]key, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.fn != b.fn {
			return a.fn < b.fn
		}
		return a.text < b.text
	})
	for _, k := range ordered {
		switch c, b := cm[k], bm[k]; {
		case c > b:
			regressions = append(regressions,
				fmt.Sprintf("%s: %s: %q: %d escape(s), budget %d", k.file, k.fn, k.text, c, b))
		case c < b:
			improvements = append(improvements,
				fmt.Sprintf("%s: %s: %q: now %d, budget %d", k.file, k.fn, k.text, c, b))
		}
	}
	return regressions, improvements
}

// loadProgram type-checks the whole module around dir and returns the
// program view without running any checks — the -escapes mode and tools
// needing only the call graph use this.
func loadProgram(dir string) (*Program, error) {
	mod, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	dirs, err := discover(fset, mod)
	if err != nil {
		return nil, err
	}
	ld := newLoader(fset, mod, dirs)
	relpos := relposFunc(fset, mod.Root)
	var units []*unit
	directives := make(map[string]*directiveIndex)
	for _, path := range topoOrder(dirs) {
		pd, ok := dirs[path]
		if !ok {
			continue
		}
		us, _, err := runPackage(ld, pd, nil, false, relpos, directives)
		if err != nil {
			return nil, err
		}
		units = append(units, us...)
	}
	return newProgram(fset, units, mod.Path, relpos), nil
}
