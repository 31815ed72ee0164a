// Package lint registers the repository's invariant analyzers — the
// checks that catch bugs no test in the suite catches. See
// cmd/reunion-lint for the CLI and DESIGN.md ("Static analysis") for
// the rationale behind each analyzer.
package lint

import (
	"reunion/internal/lint/analysis"
	"reunion/internal/lint/obsgated"
	"reunion/internal/lint/snapshotcomplete"
)

// Analyzers is the full suite, in documentation order.
var Analyzers = []*analysis.Analyzer{
	snapshotcomplete.Analyzer,
	obsgated.Analyzer,
}
