package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The //wec: comment directives. A directive is a line comment of the form
//
//	//wec:<name> <reason...>
//
// (no space after //, mirroring //go: directives so gofmt leaves them
// alone). Placement decides scope:
//
//   - on a statement's own line, or on the line directly above it: applies
//     to that statement (meteredaccess, noallocpath escapes);
//   - in a function's doc comment: applies to the whole function
//     (//wec:mutator, //wec:noalloc);
//   - in a type declaration's doc comment: applies to the type
//     (//wec:immutable).
const (
	// DirUnmetered marks a deliberately free (uncharged) access to graph or
	// label storage in a paper-pristine package; the reason is mandatory.
	DirUnmetered = "unmetered"
	// DirMutator marks a constructor/builder function allowed to assign
	// fields of //wec:immutable types; the reason is mandatory.
	DirMutator = "mutator"
	// DirImmutable marks a type whose instances must not be mutated outside
	// //wec:mutator functions (the published-snapshot reachability set).
	DirImmutable = "immutable"
	// DirNoAlloc marks a function on the allocation-free query hot path;
	// noallocpath checks its body.
	DirNoAlloc = "noalloc"
	// DirAlloc marks a statement inside a //wec:noalloc function that is
	// allowed to allocate (error paths, cold nil-scratch branches,
	// amortized buffer growth); the reason is mandatory.
	DirAlloc = "alloc"
)

// knownDirectives lists every valid //wec: name and whether its reason text
// is mandatory (checked by the wecdirective analyzer).
var knownDirectives = map[string]bool{
	DirUnmetered: true,
	DirMutator:   true,
	DirImmutable: false,
	DirNoAlloc:   false,
	DirAlloc:     true,
}

// A Directive is one parsed //wec:<name> <reason> comment.
type Directive struct {
	// Name is the directive keyword after "wec:".
	Name string
	// Reason is the free text after the keyword (may be empty).
	Reason string
	// Pos is the comment's position.
	Pos token.Pos
}

// A DirectiveIndex locates //wec: directives by source line.
type DirectiveIndex struct {
	fset   *token.FileSet
	byLine map[string]map[int][]Directive // filename -> line -> directives
}

// IndexDirectives scans every comment of files for //wec: directives.
func IndexDirectives(fset *token.FileSet, files []*ast.File) *DirectiveIndex {
	idx := &DirectiveIndex{fset: fset, byLine: map[string]map[int][]Directive{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx.byLine[pos.Filename]
				if lines == nil {
					lines = map[int][]Directive{}
					idx.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], d)
			}
		}
	}
	return idx
}

// parseDirective parses one comment as a //wec: directive.
func parseDirective(c *ast.Comment) (Directive, bool) {
	text, ok := strings.CutPrefix(c.Text, "//wec:")
	if !ok {
		return Directive{}, false
	}
	name, reason, _ := strings.Cut(text, " ")
	name = strings.TrimSpace(name)
	if name == "" {
		return Directive{}, false
	}
	return Directive{Name: name, Reason: strings.TrimSpace(reason), Pos: c.Pos()}, true
}

// At returns the named directive attached to the statement at pos: one on
// the same source line (trailing comment) or on the line directly above.
func (idx *DirectiveIndex) At(pos token.Pos, name string) *Directive {
	p := idx.fset.Position(pos)
	lines := idx.byLine[p.Filename]
	if lines == nil {
		return nil
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		for i := range lines[line] {
			if lines[line][i].Name == name {
				return &lines[line][i]
			}
		}
	}
	return nil
}

// All returns every directive in the index, in arbitrary order.
func (idx *DirectiveIndex) All() []Directive {
	var out []Directive
	for _, lines := range idx.byLine {
		for _, ds := range lines {
			out = append(out, ds...)
		}
	}
	return out
}

// docDirective returns the named directive inside a doc comment group.
func docDirective(doc *ast.CommentGroup, name string) *Directive {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.Name == name {
			return &d
		}
	}
	return nil
}

// FuncDirective returns the named directive from fn's doc comment.
func FuncDirective(fn *ast.FuncDecl, name string) *Directive {
	return docDirective(fn.Doc, name)
}

// enclosingFunc returns the innermost FuncDecl of file containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Pos() <= pos && pos <= fn.End() {
			return fn
		}
	}
	return nil
}
