// Command reunion-lint runs the repository's invariant lint suite: the
// two analyzers in internal/lint (snapshotcomplete, obsgated).
// `go test ./...` runs it over the module (TestRepoIsClean), and it
// doubles as a local pre-commit check:
//
//	reunion-lint ./...             # whole module, all analyzers
//	reunion-lint -run obsgated ./internal/cache/...
//
// Exit codes: 0 clean, 1 diagnostics reported, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strings"

	"reunion/internal/lint"
	"reunion/internal/lint/analysis"
)

func main() { os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr)) }

// Main is the testable entry point.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("reunion-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir      = fs.String("C", ".", "change to `dir` before loading packages")
		runNames = fs.String("run", "", "comma-separated `subset` of analyzers to run")
		list     = fs.Bool("list", false, "list the analyzers and exit")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: reunion-lint [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.Analyzers {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := selectAnalyzers(*runNames)
	if err != nil {
		fmt.Fprintln(stderr, "reunion-lint:", err)
		return 2
	}
	prog, err := analysis.LoadModule(*dir, fs.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "reunion-lint:", err)
		return 2
	}
	diags, err := analysis.Run(prog, selected)
	if err != nil {
		fmt.Fprintln(stderr, "reunion-lint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves a -run subset (empty = all).
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	want := map[string]bool{}
	if names != "" {
		for _, n := range strings.Split(names, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	var out []*analysis.Analyzer
	for _, a := range lint.Analyzers {
		if len(want) > 0 && !want[a.Name] {
			continue
		}
		delete(want, a.Name)
		out = append(out, a)
	}
	if len(want) > 0 {
		return nil, fmt.Errorf("unknown analyzers %q (use -list)", slices.Sorted(maps.Keys(want)))
	}
	return out, nil
}
