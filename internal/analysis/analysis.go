// Package analysis is the repository's custom static-analysis suite: a
// dependency-free miniature of golang.org/x/tools/go/analysis (which the
// no-new-dependencies constraint rules out) plus the analyzers that encode
// this repo's load-bearing invariants as machine-checked rules:
//
//   - meteredaccess: the paper-pristine algorithm packages must reach graph
//     adjacency and label storage through the cost-metered accessors
//     (graph.View, asym.Array.Get/Set), never the raw unmetered ones,
//     unless the access is annotated //wec:unmetered <reason>.
//   - snapshotsafe: types marked //wec:immutable (the serving snapshot and
//     everything it reaches — the oracles, the decomposition) may only have
//     fields assigned inside functions annotated //wec:mutator, catching
//     mutate-after-publish races deterministically where -race catches them
//     probabilistically.
//   - typederr: sentinel errors (conn.ErrNeedsRebuild, serve.ErrPersist,
//     ...) must be tested with errors.Is, never == / != or string matching.
//   - noallocpath: functions annotated //wec:noalloc (the engine's
//     query hot path) are checked for allocation-shaped constructs; the
//     runtime testing.AllocsPerRun gate in internal/serve backs the static
//     check with ground truth.
//   - docstyle: the godoc-coverage rule of internal/lintdoc, run as an
//     analyzer over the API-bearing packages.
//   - wecdirective: hygiene for the //wec:* directives themselves (unknown
//     names, missing reasons), so the escape hatches cannot silently rot.
//
// The cmd/weclint multichecker runs every analyzer over a package pattern
// and is wired into `make lint` and CI. Analyzer semantics and the
// directive grammar are documented in docs/static-analysis.md.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. It mirrors the x/tools shape:
// a name, a doc sentence, and a Run function applied to one package.
type Analyzer struct {
	// Name is the analyzer's identifier (lowercase, no spaces); diagnostics
	// are tagged with it and -run filters on it.
	Name string
	// Doc is a one-line description shown by `weclint -list`.
	Doc string
	// Run inspects one package via the Pass and reports findings through
	// pass.Reportf. A non-nil error aborts the whole lint run (reserved for
	// analyzer bugs, not findings).
	Run func(pass *Pass) error
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the analyzer this pass runs.
	Analyzer *Analyzer
	// Fset maps token positions to file/line (shared by all files).
	Fset *token.FileSet
	// Files are the package's parsed files, comments included.
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's Uses/Defs/Types/Selections maps.
	TypesInfo *types.Info
	// Directives indexes every //wec: comment directive in Files.
	Directives *DirectiveIndex

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a position, the analyzer that produced it,
// and the message.
type Diagnostic struct {
	// Analyzer names the producing analyzer.
	Analyzer string
	// Pos is the finding's resolved file position.
	Pos token.Position
	// Message states the violated invariant and the fix.
	Message string
}

// String formats the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies every analyzer to every package and returns the findings
// sorted by position. Analyzer errors (not findings) abort the run.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.Info,
				Directives: pkg.Directives,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		MeteredAccess,
		SnapshotSafe,
		TypedErr,
		NoAllocPath,
		DocStyle,
		WecDirective,
	}
}
