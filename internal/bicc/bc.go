package bicc

import (
	"repro/internal/asym"
	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/unionfind"
)

// BCLabeling is the paper's O(n)-size biconnectivity output (Definition 3):
// a spanning forest, a component label per vertex (over the graph minus the
// critical tree edges), and a head vertex per component. A biconnected
// component of the graph is exactly one label class plus its head.
//
// All stored state is O(n) words: the spanning forest, first/last/low/high,
// the critical bits, the labels, heads, sizes, head counts, and the
// 2-edge-connected labels used by 1-edge-connectivity queries.
type BCLabeling struct {
	g    *graph.Graph
	tree *eulertour.Tree

	parent   []int32        // spanning forest (parent[root] = root)
	roots    map[int32]bool // forest roots
	critical *asym.BitArray // critical[v]: tree edge (parent(v), v) is critical

	labels *asym.Array // L: vertex -> component label (min vertex in comp)
	head   *asym.Array // head[label] = component head (valid at label slots)
	size   *asym.Array // size[label] = component size
	// headCount[v] = number of components headed by v that do not contain
	// v — the articulation-point counter of Lemma 5.1.
	headCount *asym.Array
	twoEdge   *asym.Array // 2-edge-connected component label per vertex

	// NumBCC counts biconnected components with at least one edge.
	NumBCC int
	// Low, High, First, Last are retained for inspection and the
	// clusters-graph reuse in the §5.3 oracle.
	Low, High []int64
}

// Build computes the BC labeling of (each component of) the graph behind
// vw: O(m) operations and O(n) writes (Lemma 5.1), using the Euler-tour
// low/high computation of the Tarjan–Vishkin algorithm (§5.1) and a
// connectivity pass over the non-critical edges (§5.2).
func Build(c *parallel.Ctx, vw graph.View) *BCLabeling {
	g := vw.G
	m := vw.M
	n := g.N()

	// Spanning forest by BFS: O(m) reads, O(n) writes.
	parent := make([]int32, n)
	var roots []int32
	for v := range parent {
		parent[v] = -1
	}
	for s := 0; s < n; s++ {
		m.Read(1)
		if parent[s] >= 0 {
			continue
		}
		parent[s] = int32(s)
		roots = append(roots, int32(s))
		frontier := []int32{int32(s)}
		for len(frontier) > 0 {
			var next []int32
			for _, v := range frontier {
				deg := vw.Degree(int(v))
				for i := 0; i < deg; i++ {
					u := vw.Neighbor(int(v), i)
					if parent[u] >= 0 {
						continue
					}
					parent[u] = v
					m.Write(1)
					next = append(next, u)
				}
			}
			frontier = next
		}
	}
	m.Write(len(roots))

	b := &BCLabeling{g: g, parent: parent, roots: map[int32]bool{}}
	for _, r := range roots {
		b.roots[r] = true
	}
	b.tree = eulertour.NewForest(m, roots, parent)

	// wmin/wmax per vertex over non-tree incident edges (§5.1). One
	// occurrence of each distinct tree edge is skipped; parallel copies
	// count as non-tree edges, which keeps their endpoints biconnected.
	wmin := make([]int64, n)
	wmax := make([]int64, n)
	for v := 0; v < n; v++ {
		f := int64(b.tree.First(m, int32(v)))
		wmin[v], wmax[v] = f, f
		skippedParent := false
		skippedChild := map[int32]bool{}
		deg := vw.Degree(v)
		for i := 0; i < deg; i++ {
			u := vw.Neighbor(v, i)
			if !skippedParent && parent[v] == u && !b.roots[int32(v)] {
				skippedParent = true
				continue
			}
			if parent[u] == int32(v) && !skippedChild[u] && !b.roots[u] {
				skippedChild[u] = true
				continue
			}
			fu := int64(b.tree.First(m, u))
			if fu < wmin[v] {
				wmin[v] = fu
			}
			if fu > wmax[v] {
				wmax[v] = fu
			}
		}
	}
	m.Write(2 * n) // persist w values (the reduce output of §5.1)

	// low/high by leaffix (§5.1).
	b.Low = b.tree.Leaffix(m, func(v int32) int64 { return wmin[v] },
		func(a, x int64) int64 {
			if x < a {
				return x
			}
			return a
		}, nil)
	b.High = b.tree.Leaffix(m, func(v int32) int64 { return wmax[v] },
		func(a, x int64) int64 {
			if x > a {
				return x
			}
			return a
		}, nil)
	m.Write(2 * n) // persist low/high

	// Critical tree edges: (parent(v), v) with first(p) <= low(v) and
	// high(v) <= last(p).
	b.critical = asym.NewBitArray(m, n)
	for v := 0; v < n; v++ {
		if b.roots[int32(v)] {
			continue
		}
		p := parent[v]
		if int64(b.tree.First(m, p)) <= b.Low[v] && b.High[v] <= int64(b.tree.Last(m, p)) {
			b.critical.Set(v, true)
		}
	}

	// Component labels over the graph minus critical tree edges (§5.2).
	// One occurrence of each critical tree edge is skipped; every other
	// edge is unioned.
	dsu := unionfind.New(m, n)
	for v := 0; v < n; v++ {
		skipped := map[int32]bool{}
		deg := vw.Degree(v)
		for i := 0; i < deg; i++ {
			u := vw.Neighbor(v, i)
			if u < int32(v) {
				continue // handle each undirected edge once, from its lower endpoint
			}
			if u == int32(v) {
				continue // self-loop
			}
			crit := (parent[u] == int32(v) && b.critical.Get(int(u))) ||
				(parent[v] == u && b.critical.Get(v))
			if crit && !skipped[u] {
				skipped[u] = true
				continue
			}
			dsu.Union(int32(v), u)
		}
	}
	b.labels = asym.NewArray(m, n)
	minOf := map[int32]int32{}
	for v := 0; v < n; v++ {
		r := dsu.Find(int32(v))
		if cur, ok := minOf[r]; !ok || int32(v) < cur {
			minOf[r] = int32(v)
		}
	}
	for v := 0; v < n; v++ {
		b.labels.Set(v, minOf[dsu.Find(int32(v))])
	}

	// Heads: the topmost (minimum-depth, then minimum-id) vertex of each
	// component determines its head = that vertex's tree parent.
	b.head = asym.NewArray(m, n)
	b.size = asym.NewArray(m, n)
	b.headCount = asym.NewArray(m, n)
	type top struct {
		v     int32
		depth int32
	}
	tops := map[int32]top{}
	sizes := map[int32]int32{}
	for v := 0; v < n; v++ {
		l := b.labels.Get(v)
		sizes[l]++
		d := b.tree.Depth(m, int32(v))
		if t, ok := tops[l]; !ok || d < t.depth || (d == t.depth && int32(v) < t.v) {
			tops[l] = top{int32(v), d}
		}
	}
	for l, t := range tops {
		h := parent[t.v]
		b.head.Set(int(l), h)
		b.size.Set(int(l), sizes[l])
		// Count toward articulation only when the head is outside the
		// component (the component containing its own head contributes a
		// BCC without a separating role for the head).
		m.Read(1)
		if b.labels.Raw()[h] != l { //wec:unmetered charged by the m.Read(1) above
			b.headCount.Set(int(h), b.headCount.Get(int(h))+1)
		}
		// A component is a real BCC when it has at least one edge: either
		// it is attached below a head outside it (the tree edge to the
		// head), or it has >= 2 vertices.
		if b.labels.Raw()[h] != l || sizes[l] >= 2 { //wec:unmetered re-reads the labels[h] slot already charged above
			b.NumBCC++
		}
	}
	c.AddDepth(logDepth(n) * int64(m.Omega()))

	// 2-edge-connected components: union everything except bridges.
	te := unionfind.New(m, n)
	for v := 0; v < n; v++ {
		deg := vw.Degree(v)
		for i := 0; i < deg; i++ {
			u := vw.Neighbor(v, i)
			if u <= int32(v) {
				continue
			}
			if b.IsBridge(m, int32(v), u) {
				continue
			}
			te.Union(int32(v), u)
		}
	}
	b.twoEdge = asym.NewArray(m, n)
	minOf2 := map[int32]int32{}
	for v := 0; v < n; v++ {
		r := te.Find(int32(v))
		if cur, ok := minOf2[r]; !ok || int32(v) < cur {
			minOf2[r] = int32(v)
		}
	}
	for v := 0; v < n; v++ {
		b.twoEdge.Set(v, minOf2[te.Find(int32(v))])
	}
	return b
}

// Tree returns the spanning forest structure.
func (b *BCLabeling) Tree() *eulertour.Tree { return b.tree }

// Parent returns v's spanning-forest parent (roots map to themselves).
func (b *BCLabeling) Parent(v int32) int32 { return b.parent[v] }

// Label returns v's component label, charging one read.
//
//wec:unmetered the single labels read is charged by the m.Read(1) in the body
func (b *BCLabeling) Label(m *asym.Meter, v int32) int32 {
	m.Read(1)
	return b.labels.Raw()[v]
}

// Head returns the head vertex of the component with the given label.
//
//wec:unmetered the single head read is charged by the m.Read(1) in the body
func (b *BCLabeling) Head(m *asym.Meter, label int32) int32 {
	m.Read(1)
	return b.head.Raw()[label]
}

// IsBridge reports whether edge {u,v} is a bridge: it must be a tree edge
// whose child side forms a single-vertex component headed by the other
// endpoint (Lemma 5.1). O(1) reads, no writes.
//
//wec:unmetered every Raw read is pre-charged by the explicit m.Read calls
func (b *BCLabeling) IsBridge(m *asym.Meter, u, v int32) bool {
	if b.parent[v] != u {
		u, v = v, u
	}
	m.Read(1)
	if b.parent[v] != u || b.roots[v] {
		return false
	}
	m.Read(2)
	l := b.labels.Raw()[v]
	return l == v && b.size.Raw()[l] == 1
}

// IsArticulation reports whether v is an articulation point: a forest root
// must head two components not containing it, any other vertex one. O(1)
// reads, no writes.
//
//wec:unmetered the headCount read is charged by the m.Read(1) in the body
func (b *BCLabeling) IsArticulation(m *asym.Meter, v int32) bool {
	m.Read(1)
	cnt := b.headCount.Raw()[v]
	if b.roots[v] {
		return cnt >= 2
	}
	return cnt >= 1
}

// EdgeLabel returns the biconnected-component label of edge {u,v}: the
// component label of the endpoint farther from the root (§5.2's implicit
// version of the standard output). O(1) reads, no writes.
//
//wec:unmetered both possible label reads are covered by the m.Read(2) up front
func (b *BCLabeling) EdgeLabel(m *asym.Meter, u, v int32) int32 {
	m.Read(2)
	if b.parent[u] == v && !b.roots[u] {
		return b.labels.Raw()[u]
	}
	return b.labels.Raw()[v]
}

// SameBCC reports whether distinct vertices u and v share a biconnected
// component: same label, or one heads the other's component. O(1) reads.
//
//wec:unmetered the m.Read(4) up front covers the worst-case four slot reads
func (b *BCLabeling) SameBCC(m *asym.Meter, u, v int32) bool {
	if u == v {
		return true
	}
	m.Read(4)
	lu := b.labels.Raw()[u]
	lv := b.labels.Raw()[v]
	if lu == lv {
		return true
	}
	// Head relations count only when the headed component really hangs
	// below the head (the head is outside it).
	if b.head.Raw()[lu] == v && b.labels.Raw()[v] != lu {
		return true
	}
	if b.head.Raw()[lv] == u && b.labels.Raw()[u] != lv {
		return true
	}
	return false
}

// Same2EdgeCC reports whether u and v are 1-edge connected (no bridge
// separates them). O(1) reads, no writes.
//
//wec:unmetered both twoEdge reads are covered by the m.Read(2) up front
func (b *BCLabeling) Same2EdgeCC(m *asym.Meter, u, v int32) bool {
	m.Read(2)
	return b.twoEdge.Raw()[u] == b.twoEdge.Raw()[v]
}

// BlockCutTree returns the block-cut tree edges as (component label,
// articulation vertex) pairs, derived per §5.2: each component connects to
// its head when the head is an articulation point, and each articulation
// vertex inside a component connects to that component's label.
//
//wec:unmetered head/label reads are charged by the m.Read(2) in the inner loop
func (b *BCLabeling) BlockCutTree(m *asym.Meter) [][2]int32 {
	n := b.g.N()
	var out [][2]int32
	seen := map[[2]int32]bool{}
	add := func(l, v int32) {
		key := [2]int32{l, v}
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	for v := 0; v < n; v++ {
		if !b.IsArticulation(m, int32(v)) {
			continue
		}
		// v joins its own component...
		l := b.Label(m, int32(v))
		add(l, int32(v))
		// ...and every component it heads.
		for u := 0; u < n; u++ {
			lu := b.Label(m, int32(u))
			m.Read(2)
			if b.head.Raw()[lu] == int32(v) && b.labels.Raw()[int32(v)] != lu {
				add(lu, int32(v))
			}
		}
	}
	return out
}

// BridgeBlockTree returns the bridge-block tree (the tree of 2-edge-
// connected components): one node per 2ecc label, one edge per bridge,
// given as (2ecc label of one side, 2ecc label of the other). Its size is
// the number of bridges, so materializing it costs O(#bridges) beyond the
// O(m) read scan.
//
//wec:unmetered the adjacency scan charges one read per adjacency slot and m.Read(2) per bridge endpoint pair
func (b *BCLabeling) BridgeBlockTree(m *asym.Meter) [][2]int32 {
	var out [][2]int32
	for v := 0; v < b.g.N(); v++ {
		for _, u := range b.g.Adj(v) {
			m.Read(1)
			if u <= int32(v) {
				continue
			}
			if b.IsBridge(m, int32(v), u) {
				m.Read(2)
				out = append(out, [2]int32{b.twoEdge.Raw()[v], b.twoEdge.Raw()[u]})
			}
		}
	}
	return out
}

// TwoEdgeLabel returns v's 2-edge-connected component label (the smallest
// vertex id in the component of the graph minus bridges). O(1) reads.
//
//wec:unmetered the single twoEdge read is charged by the m.Read(1) in the body
func (b *BCLabeling) TwoEdgeLabel(m *asym.Meter, v int32) int32 {
	m.Read(1)
	return b.twoEdge.Raw()[v]
}

func logDepth(n int) int64 {
	d := int64(1)
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}
