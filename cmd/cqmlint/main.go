// Command cqmlint runs the repo-specific static-analysis suite over the
// cqm module. It loads every package matching the given patterns, type
// checks them in dependency order, and applies the checks registered in
// internal/lint.
//
// Usage:
//
//	cqmlint [flags] [packages]
//
//	go run ./cmd/cqmlint ./...
//	go run ./cmd/cqmlint -json ./internal/...
//	go run ./cmd/cqmlint -checks floatcmp,unchecked-err ./internal/stat
//	go run ./cmd/cqmlint -escapes
//	go run ./cmd/cqmlint -update-escapes
//
// Exit status is 0 when the tree is clean, 1 when any finding is reported
// (the CI gate), and 2 on usage or load errors. Findings print one per
// line as file:line:col: [check] message; -json emits the same findings
// as a JSON array of {file, line, col, check, message} objects.
//
// Beyond the per-package checks, the suite includes interprocedural
// analyses built on a whole-module call graph: determinism-taint
// (nondeterministic values must not flow into encoders, artifacts, or bus
// publishes), hotpath-alloc (no unwaived allocation reachable from a
// //cqm:hotpath root, pruned at //cqm:coldpath), lock-discipline (no
// blocking call under a held mutex; consistent lock ordering), and unused
// (every non-test function is reached from a main, an init, a package
// initializer, the root package's API or an implicitly called method).
//
// -escapes compiles the module with -gcflags=-m, attributes the
// compiler's escape diagnostics to hot-path functions, and diffs them
// against the checked-in ESCAPES.json budget: exit 1 on any escape above
// budget. -update-escapes rewrites the budget to the current state.
//
// A finding can be waived in place with a mandatory-reason directive on
// the offending line or the line above:
//
//	//lint:ignore check-name reason
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cqm/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("cqmlint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	checks := fs.String("checks", "", "comma-separated subset of checks to run (default all)")
	list := fs.Bool("list", false, "list registered checks and exit")
	dir := fs.String("C", "", "change to this directory before locating the module")
	escapes := fs.Bool("escapes", false, "diff hot-path escape diagnostics against ESCAPES.json")
	updateEscapes := fs.Bool("update-escapes", false, "rewrite ESCAPES.json from the current hot-path escapes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *escapes || *updateEscapes {
		return runEscapes(*dir, *updateEscapes)
	}
	if *list {
		for _, c := range lint.Checks() {
			fmt.Printf("%-16s %s\n", c.Name, c.Doc)
		}
		return 0
	}
	var names []string
	if *checks != "" {
		names = strings.Split(*checks, ",")
	}
	findings, err := lint.Run(lint.Options{
		Dir:      *dir,
		Patterns: fs.Args(),
		Checks:   names,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqmlint:", err)
		return 2
	}
	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "cqmlint:", err)
			return 2
		}
	} else if err := lint.WriteText(os.Stdout, findings); err != nil {
		fmt.Fprintln(os.Stderr, "cqmlint:", err)
		return 2
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "cqmlint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	return 0
}

// runEscapes drives the escape-budget ratchet: exit 1 on regressions,
// 0 otherwise (improvements are advisory).
func runEscapes(dir string, update bool) int {
	res, err := lint.RunEscapes(dir, update)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqmlint:", err)
		return 2
	}
	if update {
		fmt.Printf("cqmlint: wrote %d hot-path escape entries to %s\n", len(res.Entries), lint.EscapeBudgetFile)
		return 0
	}
	for _, r := range res.Regressions {
		fmt.Println("regression:", r)
	}
	for _, im := range res.Improvements {
		fmt.Println("improvement:", im)
	}
	if len(res.Improvements) > 0 {
		fmt.Println("cqmlint: budget is loose; ratchet down with -update-escapes")
	}
	if len(res.Regressions) > 0 {
		fmt.Fprintf(os.Stderr, "cqmlint: %d hot-path escape regression(s) over %s\n", len(res.Regressions), lint.EscapeBudgetFile)
		return 1
	}
	return 0
}
