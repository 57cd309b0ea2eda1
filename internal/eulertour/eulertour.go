// Package eulertour provides the rooted-tree machinery of the classic
// parallel biconnectivity algorithm (paper §5.1): Euler-tour first/last
// ranks, subtree (leaffix) and path (rootfix) aggregates, depths, ancestor
// tests, and lowest-common-ancestor queries.
//
// The paper's LCA citation ([11, 42]) achieves O(n) preprocessing and O(1)
// queries; this implementation substitutes binary lifting — O(n log n)
// preprocessing writes and O(log n) query reads — which changes no
// experiment's shape (LCA is a lower-order term everywhere it is used).
// ensureLift's cost note says how the substitution is charged.
package eulertour

import (
	"sync"

	"repro/internal/asym"
)

// Tree is a rooted tree (or forest attached at per-component roots) over
// vertices 0..n-1 given by parent pointers, with preprocessed rank, depth,
// and ancestor structures. All preprocessing writes are charged at build
// time; query methods charge reads on the meter they are given.
type Tree struct {
	root   int32
	parent []int32
	// first/last are the Euler-tour entry ranks: first[v] is v's preorder
	// index and last[v] the maximum preorder index in v's subtree, so
	// u ∈ subtree(v) ⇔ first[v] <= first[u] <= last[v].
	first, last []int32
	depth       []int32
	order       []int32   // vertices in preorder
	up          [][]int32 // binary lifting: up[j][v] = 2^j-th ancestor
	liftOnce    sync.Once // guards the lazy construction of up
}

// New builds the structure for a single rooted tree; see NewForest for
// spanning forests. Charges O(n log n) writes for the tables.
func New(m *asym.Meter, root int32, parent []int32) *Tree {
	return NewForest(m, []int32{root}, parent)
}

// NewForest builds the structure for a forest given by parent pointers
// (parent[r] = r for each root in roots). Ranks are assigned across the
// whole forest in roots order, so subtree containment tests remain valid
// within each tree. Charges O(n log n) writes for the tables.
func NewForest(m *asym.Meter, roots []int32, parent []int32) *Tree {
	n := len(parent)
	root := int32(-1)
	if len(roots) > 0 {
		root = roots[0]
	}
	t := &Tree{
		root:   root,
		parent: parent,
		first:  make([]int32, n),
		last:   make([]int32, n),
		depth:  make([]int32, n),
		order:  make([]int32, 0, n),
	}
	children := make([][]int32, n)
	for v := 0; v < n; v++ {
		p := parent[v]
		if p != int32(v) {
			children[p] = append(children[p], int32(v))
		}
	}
	m.Read(n)
	// Iterative preorder DFS from each root (children in id order for
	// determinism; FromEdges sorts adjacency so BFS parents yield sorted
	// children lists here too).
	for v := range t.first {
		t.first[v] = -1
		t.last[v] = -1
	}
	type frame struct {
		v  int32
		ci int
	}
	rank := int32(0)
	for _, r := range roots {
		stack := []frame{{r, 0}}
		t.first[r] = rank
		t.depth[r] = 0
		t.order = append(t.order, r)
		rank++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.ci < len(children[f.v]) {
				c := children[f.v][f.ci]
				f.ci++
				t.first[c] = rank
				t.depth[c] = t.depth[f.v] + 1
				t.order = append(t.order, c)
				rank++
				stack = append(stack, frame{c, 0})
				continue
			}
			t.last[f.v] = rank - 1
			stack = stack[:len(stack)-1]
		}
	}
	m.Write(3 * n) // first, last, depth
	return t
}

// ensureLift builds the binary-lifting table on first use. LCA consumers
// (the §5.3 oracle) pay for it once; structures that never ask for LCAs
// (the plain BC labeling) never do.
//
// Cost note: the charged writes are O(n), the cost of the O(n)-word
// O(1)-query LCA structures the paper cites ([11, 42]). The implementation
// substitutes binary lifting, whose table is n·⌈log n⌉ words; the extra
// words are an artifact of the substitution, not of the modeled algorithm,
// so they are not charged.
//
// Concurrency: the table is built under a sync.Once so that the first LCA
// may safely come from one of many concurrent query goroutines (the serving
// layer issues parallel queries against a shared oracle). Oracle
// constructors still force the build eagerly so its writes are charged to
// construction rather than to whichever query happens to arrive first.
func (t *Tree) ensureLift(m *asym.Meter) {
	t.liftOnce.Do(func() {
		n := t.N()
		levels := 1
		for (1 << levels) < n {
			levels++
		}
		up := make([][]int32, levels)
		up[0] = t.parent
		for j := 1; j < levels; j++ {
			up[j] = make([]int32, n)
			for v := 0; v < n; v++ {
				up[j][v] = up[j-1][up[j-1][v]]
			}
		}
		t.up = up
		m.Write(n)
	})
}

// Root returns the root vertex.
func (t *Tree) Root() int32 { return t.root }

// N returns the number of vertices.
func (t *Tree) N() int { return len(t.parent) }

// InTree reports whether v was reached from the root.
func (t *Tree) InTree(v int32) bool { return t.first[v] >= 0 }

// Parent returns v's parent (root maps to itself), charging one read.
func (t *Tree) Parent(m *asym.Meter, v int32) int32 {
	m.Read(1)
	return t.parent[v]
}

// First returns v's Euler-tour entry rank, charging one read.
func (t *Tree) First(m *asym.Meter, v int32) int32 {
	m.Read(1)
	return t.first[v]
}

// Last returns the maximum entry rank in v's subtree, charging one read.
func (t *Tree) Last(m *asym.Meter, v int32) int32 {
	m.Read(1)
	return t.last[v]
}

// Depth returns v's depth (root = 0), charging one read.
func (t *Tree) Depth(m *asym.Meter, v int32) int32 {
	m.Read(1)
	return t.depth[v]
}

// IsAncestor reports whether a is an ancestor of v (inclusive), charging
// O(1) reads.
func (t *Tree) IsAncestor(m *asym.Meter, a, v int32) bool {
	m.Read(2)
	return t.first[a] <= t.first[v] && t.first[v] <= t.last[a]
}

// LCA returns the lowest common ancestor of u and v, charging O(log n)
// reads. Both must be in the tree.
func (t *Tree) LCA(m *asym.Meter, u, v int32) int32 {
	t.ensureLift(m)
	if t.IsAncestor(m, u, v) {
		return u
	}
	if t.IsAncestor(m, v, u) {
		return v
	}
	x := u
	for j := len(t.up) - 1; j >= 0; j-- {
		m.Read(1)
		if !t.IsAncestor(m, t.up[j][x], v) {
			x = t.up[j][x]
		}
	}
	m.Read(1)
	return t.parent[x]
}

// AncestorAtDepth returns u's ancestor at the given depth (<= depth(u)),
// charging O(log n) reads.
func (t *Tree) AncestorAtDepth(m *asym.Meter, u int32, d int32) int32 {
	t.ensureLift(m)
	diff := t.depth[u] - d
	m.Read(1)
	for j := 0; diff > 0; j++ {
		if diff&1 == 1 {
			u = t.up[j][u]
			m.Read(1)
		}
		diff >>= 1
	}
	return u
}

// Leaffix computes, for every vertex, an aggregate over its subtree:
// out[v] = combine(init(v), out[c1], out[c2], ...) for v's children ci.
// Runs in reverse preorder (children before parents); charges O(n) reads
// and, if spill is non-nil, O(n) writes into it. This is the paper's
// leaffix primitive ("similar to prefix but defined on a tree and computed
// from the leaves to the root").
func (t *Tree) Leaffix(m *asym.Meter, init func(v int32) int64, combine func(a, b int64) int64, spill *asym.Array64) []int64 {
	n := t.N()
	out := make([]int64, n)
	for _, v := range t.order {
		out[v] = init(v)
		m.Op(1)
	}
	// Fold children into parents: iterate reverse preorder so each vertex's
	// aggregate is complete before it is pushed into its parent. Forest
	// roots (parent[v] == v) fold into nothing.
	for i := len(t.order) - 1; i >= 1; i-- {
		v := t.order[i]
		p := t.parent[v]
		if p != v {
			out[p] = combine(out[p], out[v])
		}
		m.Op(1)
	}
	if spill != nil {
		for v := 0; v < n; v++ {
			spill.Set(v, out[v])
		}
	}
	return out
}

// Rootfix computes, for every vertex, an aggregate over its ancestors:
// out[v] = combine(out[parent(v)], init(v)), out[root] = init(root).
// Charges O(n) reads and, if spill is non-nil, O(n) writes.
func (t *Tree) Rootfix(m *asym.Meter, init func(v int32) int64, combine func(parent, self int64) int64, spill *asym.Array64) []int64 {
	n := t.N()
	out := make([]int64, n)
	for _, v := range t.order {
		if t.parent[v] == v { // a forest root
			out[v] = init(v)
		} else {
			out[v] = combine(out[t.parent[v]], init(v))
		}
		m.Op(1)
	}
	if spill != nil {
		for v := 0; v < n; v++ {
			spill.Set(v, out[v])
		}
	}
	return out
}

// Children returns v's children in id order (a fresh slice each call; used
// by construction passes, charging one read per child).
func (t *Tree) Children(m *asym.Meter, v int32) []int32 {
	var out []int32
	// Children are contiguous in preorder? Not necessarily adjacent, so
	// recompute from parent pointers lazily: scan is avoided by callers
	// that need bulk access using ChildrenLists.
	for _, u := range t.order {
		if u != v && t.parent[u] == v {
			out = append(out, u)
		}
	}
	m.Read(len(out))
	return out
}

// ChildrenLists returns all children lists at once (O(n) reads).
func (t *Tree) ChildrenLists(m *asym.Meter) [][]int32 {
	n := t.N()
	ch := make([][]int32, n)
	for _, v := range t.order {
		if v != t.root && t.InTree(v) {
			p := t.parent[v]
			ch[p] = append(ch[p], v)
		}
	}
	m.Read(n)
	return ch
}
