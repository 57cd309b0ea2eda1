package analysis

import (
	"strings"

	"repro/internal/lintdoc"
)

// DocPackages lists the packages under godoc-coverage enforcement: the
// serving and registry layers (covered since PR 6 via per-package tests,
// now through the one weclint entry point), the paper oracles and their
// storage (conn, bicc, store, graph), the observability core (obs), and
// the analysis suite itself.
var DocPackages = []string{
	"repro/internal/serve",
	"repro/internal/conn",
	"repro/internal/bicc",
	"repro/internal/store",
	"repro/internal/graph",
	"repro/internal/obs",
	"repro/internal/analysis",
	"repro/internal/lintdoc",
}

// DocStyle runs the internal/lintdoc godoc-coverage rule (revive
// "exported"-style: every exported top-level identifier and every exported
// method on an exported type needs a doc comment) as an analyzer over
// DocPackages, replacing the per-package doc_lint_test.go entry points so
// the whole lint surface runs from one command.
var DocStyle = &Analyzer{
	Name: "docstyle",
	Doc:  "exported identifiers in API-bearing packages must carry doc comments",
	Run:  runDocStyle,
}

func runDocStyle(pass *Pass) error {
	if !pkgInScope(pass.Pkg.Path(), DocPackages) {
		return nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // test helpers are not public API
		}
		for _, fd := range lintdoc.FileFindings(f) {
			pass.Reportf(fd.Pos, "exported %s has no doc comment", fd.What)
		}
	}
	return nil
}
