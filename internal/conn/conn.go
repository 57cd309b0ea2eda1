// Package conn implements the paper's §4 connectivity algorithms:
//
//   - Sequential: the classic BFS labeling, O(m) operations and O(n) writes
//     (already write-efficient sequentially).
//   - Parallel: Theorem 4.2 — one low-diameter decomposition with small β,
//     per-cluster spanning trees by write-efficient BFS, a write-efficient
//     filter of the cross edges into a contracted graph, and a spanning
//     forest on the contraction: O(n + βm) expected writes, O(ωn + βωm + m)
//     expected work. β = 1/ω gives O(n + m/ω) writes and O(m + ωn) work.
//   - Baseline: the prior-work recursive-contraction algorithm of Shun et
//     al. [43] with constant β, which performs Θ(m) writes per round and is
//     therefore Θ(ωm) work under asymmetry — the comparator for Table 1.
//   - Oracle (own file): Theorem 4.4 — connectivity in o(n) writes via the
//     implicit k-decomposition.
package conn

import (
	"repro/internal/asym"
	"repro/internal/bfs"
	"repro/internal/graph"
	"repro/internal/ldd"
	"repro/internal/parallel"
	"repro/internal/spanning"
)

// Result holds connectivity output: component labels (canonical: smallest
// vertex id in the component) and optionally a spanning forest.
type Result struct {
	Labels        *asym.Array // per vertex, canonical component id
	Forest        [][2]int32  // spanning forest edges (when requested)
	NumComponents int
}

// Sequential labels components by repeated BFS in O(m) operations and O(n)
// writes — the classic algorithm, which already meets the dense bound
// sequentially (Table 1 row 1 for sequential connectivity).
func Sequential(c *parallel.Ctx, vw graph.View, wantForest bool) Result {
	n := vw.G.N()
	m := vw.M
	labels := asym.NewArray(m, n)
	labels.Fill(bfs.Unvisited)
	res := Result{Labels: labels}
	for s := 0; s < n; s++ {
		m.Read(1)
		if labels.Raw()[s] != bfs.Unvisited { //wec:unmetered charged by the m.Read(1) above
			continue
		}
		res.NumComponents++
		// Claim the whole component with label s via a parent-writing BFS
		// so the forest falls out of the same pass.
		parent := map[int32]int32{int32(s): int32(s)}
		frontier := []int32{int32(s)}
		labels.Set(s, int32(s))
		for len(frontier) > 0 {
			var next []int32
			for _, v := range frontier {
				deg := vw.Degree(int(v))
				for i := 0; i < deg; i++ {
					u := vw.Neighbor(int(v), i)
					if _, ok := parent[u]; ok {
						continue
					}
					parent[u] = v
					labels.Set(int(u), int32(s))
					if wantForest {
						res.Forest = append(res.Forest, [2]int32{v, u})
						m.Write(1)
					}
					next = append(next, u)
				}
			}
			frontier = next
		}
		c.AddDepth(1)
	}
	return res
}

// Parallel is the write-efficient parallel connectivity of Theorem 4.2.
// beta <= 0 selects the paper's choice 1/ω.
func Parallel(c *parallel.Ctx, vw graph.View, beta float64, seed uint64, wantForest bool) Result {
	n := vw.G.N()
	m := vw.M
	if beta <= 0 {
		beta = 1.0 / float64(m.Omega())
	}

	// Step 1: one low-diameter decomposition.
	dec := ldd.Decompose(c, ldd.Explicit{VW: vw}, m, beta, seed)

	// Step 2: spanning trees inside each cluster come from the LDD's own
	// BFS claims; for the forest output, re-derive parent edges with
	// write-efficient BFS restricted to each cluster (O(n) writes total).
	var forest [][2]int32
	if wantForest {
		forest = clusterForest(c, vw, dec)
	}

	// Step 3: write-efficient filter of the cross-cluster edges into a
	// compacted array — writes proportional to the output size O(βm).
	cross := filterCrossEdges(c, vw, dec)

	// Step 4: spanning forest / components on the contracted graph. The
	// contracted graph has the original vertex-id space but only cluster
	// sources carry edges; labeling all n vertices costs the O(n) writes
	// the theorem already budgets.
	labels := asym.NewArray(m, n)
	spanning.Components(m, n, cross, labels)
	// Cluster members inherit their source's label.
	numComp := relabelByCluster(c, dec, labels)

	if wantForest {
		chosen := spanning.Forest(m, n, cross)
		for _, i := range chosen {
			forest = append(forest, cross[i])
		}
	}
	return Result{Labels: labels, Forest: forest, NumComponents: numComp}
}

// clusterForest runs a write-efficient BFS from each LDD source restricted
// to its own cluster, emitting parent edges. Disjoint searches share the
// parent array, so writes are O(n) total and depth is bounded by the
// cluster diameter O(log n / β).
func clusterForest(c *parallel.Ctx, vw graph.View, dec ldd.Result) [][2]int32 {
	m := vw.M
	var forest [][2]int32
	for _, s := range dec.Sources {
		frontier := []int32{s}
		seen := map[int32]bool{s: true}
		cl := dec.Cluster.Get(int(s))
		for len(frontier) > 0 {
			var next []int32
			for _, v := range frontier {
				deg := vw.Degree(int(v))
				for i := 0; i < deg; i++ {
					u := vw.Neighbor(int(v), i)
					m.Read(1)
					if seen[u] || dec.Cluster.Raw()[u] != cl { //wec:unmetered charged by the m.Read(1) above
						continue
					}
					seen[u] = true
					forest = append(forest, [2]int32{v, u})
					m.Write(1)
					next = append(next, u)
				}
			}
			frontier = next
		}
	}
	c.AddDepth(int64(dec.Iterations))
	return forest
}

// filterCrossEdges packs the cross-cluster edges, as (source u, source v)
// pairs in cluster-id space, using the write-efficient filter: two read
// passes over the adjacency structure, writes only for surviving edges.
func filterCrossEdges(c *parallel.Ctx, vw graph.View, dec ldd.Result) [][2]int32 {
	g := vw.G
	m := vw.M
	n := g.N()
	// Directed slot enumeration: slot t is the t-th adjacency word in
	// vertex order; the degrees identify its owning vertex. pred keeps the
	// {v < u} halves whose endpoints lie in different clusters.
	vertexOf := make([]int32, 0, 2*g.M())
	for v := 0; v < n; v++ {
		for j := 0; j < g.Degree(v); j++ { //wec:unmetered degree lookup; the slot reads themselves are charged in the filter
			vertexOf = append(vertexOf, int32(v))
		}
	}
	slotBase := make([]int, n+1)
	for v := 0; v < n; v++ {
		slotBase[v+1] = slotBase[v] + g.Degree(v) //wec:unmetered degree lookup, covered by the m.Op(n) charge below
	}
	m.Op(n)
	slots := parallel.Filter(c, len(vertexOf), func(slot int) bool {
		v := vertexOf[slot]
		u := vw.Neighbor(int(v), slot-slotBase[v])
		if u <= v {
			return false
		}
		m.Read(2)
		return dec.Cluster.Raw()[v] != dec.Cluster.Raw()[u] //wec:unmetered both cluster reads charged by the m.Read(2) above
	})
	out := make([][2]int32, len(slots))
	for i, slot := range slots {
		v := vertexOf[slot]
		u := vw.Neighbor(int(v), slot-slotBase[v])
		m.Read(2)
		m.Write(2)                                                    // the packed contracted edge
		out[i] = [2]int32{dec.Cluster.Raw()[v], dec.Cluster.Raw()[u]} //wec:unmetered both cluster reads charged by the m.Read(2) above
	}
	return out
}

// relabelByCluster overwrites labels[v] with the canonical label of v's
// cluster source and returns the number of distinct components.
func relabelByCluster(c *parallel.Ctx, dec ldd.Result, labels *asym.Array) int {
	n := labels.Len()
	m := labels.Meter()
	distinct := map[int32]bool{}
	for v := 0; v < n; v++ {
		src := dec.Cluster.Get(v)
		lab := labels.Get(int(src))
		labels.Set(v, lab)
		distinct[lab] = true
	}
	c.AddDepth(logDepth(n))
	_ = m
	return len(distinct)
}

func logDepth(n int) int64 {
	d := int64(1)
	for n > 1 {
		n >>= 1
		d++
	}
	return d
}
