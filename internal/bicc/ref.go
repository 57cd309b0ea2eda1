// Package bicc implements the paper's §5 biconnectivity suite:
//
//   - Ref (this file): an unmetered Hopcroft–Tarjan DFS, the ground truth
//     of every test and of perfbench's answer verification. It is for
//     tests and verification only: no oracle code calls it, and the
//     oracle's own block solver (blocks.go) is checked against it.
//   - BC labeling (bc.go): the paper's O(n)-word biconnectivity output
//     (Definition 3, Lemma 5.1) built from Euler-tour low/high values and a
//     connectivity pass over the non-critical edges, with O(1) queries for
//     bridges, articulation points, component labels, and pairwise
//     biconnectivity.
//   - Oracle (oracle.go): the §5.3 sublinear-write biconnectivity oracle on
//     an implicit k-decomposition, with O(k²)-read queries and O(n/k)
//     construction writes.
package bicc

import "repro/internal/graph"

// Ref holds ground-truth biconnectivity facts for a graph, computed by an
// iterative Hopcroft–Tarjan DFS without cost accounting.
type Ref struct {
	G *graph.Graph
	// EdgeBCC[i] is the biconnected-component id of the i-th edge of
	// g.Edges() (self-loops get -1).
	EdgeBCC []int32
	// IsArticulation[v] reports whether v is a cut vertex.
	IsArticulation []bool
	// BridgeSet marks edges (by Edges() index) that are bridges.
	BridgeSet []bool
	// TwoEdgeCC[v] is v's 2-edge-connected component label (component of
	// the graph after deleting bridges; canonical: min vertex id).
	TwoEdgeCC []int32
	// VertexBCCs[v] lists the BCC ids v belongs to, in order of first
	// appearance along v's edges in edge order (not sorted; callers treat
	// it as a set).
	VertexBCCs [][]int32
	NumBCC     int

	edgeIndex map[[2]int32][]int32 // endpoints -> edge ids (parallel edges)
}

// NewRef computes ground truth for g.
//
//wec:unmetered reference implementation; ground truth is not cost-accounted
func NewRef(g *graph.Graph) *Ref {
	edges := g.Edges()
	r := &Ref{
		G:              g,
		EdgeBCC:        make([]int32, len(edges)),
		IsArticulation: make([]bool, g.N()),
		BridgeSet:      make([]bool, len(edges)),
		TwoEdgeCC:      make([]int32, g.N()),
		VertexBCCs:     make([][]int32, g.N()),
		edgeIndex:      map[[2]int32][]int32{},
	}
	for i := range r.EdgeBCC {
		r.EdgeBCC[i] = -1
	}
	for i, e := range edges {
		key := norm(e[0], e[1])
		r.edgeIndex[key] = append(r.edgeIndex[key], int32(i))
	}

	n := g.N()
	// Build per-vertex incident edge lists with edge ids.
	type inc struct {
		to int32
		id int32
	}
	adj := make([][]inc, n)
	for i, e := range edges {
		if e[0] == e[1] {
			continue // self-loops belong to no BCC
		}
		adj[e[0]] = append(adj[e[0]], inc{e[1], int32(i)})
		adj[e[1]] = append(adj[e[1]], inc{e[0], int32(i)})
	}

	disc := make([]int32, n)
	low := make([]int32, n)
	parentEdge := make([]int32, n)
	for v := range disc {
		disc[v] = -1
		parentEdge[v] = -1
	}
	var stack []int32 // edge ids
	timer := int32(0)
	bcc := int32(0)

	var pop func(until int32, cut bool, v int32)
	pop = func(until int32, _ bool, _ int32) {
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			r.EdgeBCC[id] = bcc
			if id == until {
				break
			}
		}
		bcc++
	}

	type frame struct {
		v  int32
		pi int // index into adj[v]
	}
	for s := 0; s < n; s++ {
		if disc[s] >= 0 {
			continue
		}
		disc[s] = timer
		low[s] = timer
		timer++
		st := []frame{{int32(s), 0}}
		rootChildren := 0
		for len(st) > 0 {
			f := &st[len(st)-1]
			v := f.v
			if f.pi < len(adj[v]) {
				e := adj[v][f.pi]
				f.pi++
				if e.id == parentEdge[v] {
					continue
				}
				if disc[e.to] < 0 {
					// Tree edge.
					parentEdge[e.to] = e.id
					disc[e.to] = timer
					low[e.to] = timer
					timer++
					stack = append(stack, e.id)
					st = append(st, frame{e.to, 0})
					if v == int32(s) {
						rootChildren++
					}
				} else if disc[e.to] < disc[v] {
					// Back edge.
					stack = append(stack, e.id)
					if disc[e.to] < low[v] {
						low[v] = disc[e.to]
					}
				}
				continue
			}
			st = st[:len(st)-1]
			if len(st) > 0 {
				p := st[len(st)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
				if low[v] >= disc[p] {
					// p separates v's subtree: pop the component.
					if p != int32(s) {
						r.IsArticulation[p] = true
					}
					pop(parentEdge[v], true, p)
				}
			}
		}
		if rootChildren >= 2 {
			r.IsArticulation[s] = true
		}
	}
	r.NumBCC = int(bcc)

	// Bridges: BCCs consisting of exactly one edge.
	sizes := make([]int32, bcc)
	for _, b := range r.EdgeBCC {
		if b >= 0 {
			sizes[b]++
		}
	}
	for i, b := range r.EdgeBCC {
		if b >= 0 && sizes[b] == 1 {
			r.BridgeSet[i] = true
		}
	}

	// Vertex -> BCC memberships.
	seen := map[[2]int32]bool{}
	for i, e := range edges {
		b := r.EdgeBCC[i]
		if b < 0 {
			continue
		}
		for _, v := range []int32{e[0], e[1]} {
			if !seen[[2]int32{v, b}] {
				seen[[2]int32{v, b}] = true
				r.VertexBCCs[v] = append(r.VertexBCCs[v], b)
			}
		}
	}

	// 2-edge-connected components: delete bridges, take components.
	uf := newRefUF(n)
	for i, e := range edges {
		if !r.BridgeSet[i] && e[0] != e[1] {
			uf.union(e[0], e[1])
		}
	}
	minOf := map[int32]int32{}
	for v := 0; v < n; v++ {
		root := uf.find(int32(v))
		if cur, ok := minOf[root]; !ok || int32(v) < cur {
			minOf[root] = int32(v)
		}
	}
	for v := 0; v < n; v++ {
		r.TwoEdgeCC[v] = minOf[uf.find(int32(v))]
	}
	return r
}

func norm(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// IsBridge reports whether some edge {u,v} is a bridge (false if absent).
func (r *Ref) IsBridge(u, v int32) bool {
	ids := r.edgeIndex[norm(u, v)]
	if len(ids) != 1 {
		return false // absent, or parallel edges are never bridges
	}
	return r.BridgeSet[ids[0]]
}

// EdgeLabel returns the BCC id of edge {u,v} (-1 if absent or self-loop).
// For parallel edges the first instance's label is returned (they share a
// BCC in any case).
func (r *Ref) EdgeLabel(u, v int32) int32 {
	ids := r.edgeIndex[norm(u, v)]
	if len(ids) == 0 {
		return -1
	}
	return r.EdgeBCC[ids[0]]
}

// SameBCC reports whether u and v (u != v) share a biconnected component.
func (r *Ref) SameBCC(u, v int32) bool {
	for _, a := range r.VertexBCCs[u] {
		for _, b := range r.VertexBCCs[v] {
			if a == b {
				return true
			}
		}
	}
	return false
}

type refUF struct{ p []int32 }

func newRefUF(n int) *refUF {
	u := &refUF{p: make([]int32, n)}
	for i := range u.p {
		u.p[i] = int32(i)
	}
	return u
}

func (u *refUF) find(x int32) int32 {
	for u.p[x] != x {
		u.p[x] = u.p[u.p[x]]
		x = u.p[x]
	}
	return x
}

func (u *refUF) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.p[rb] = ra
	}
}
