package bicc

import (
	"runtime"
	"slices"

	"repro/internal/decomp"
	"repro/internal/eulertour"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Oracle is the §5.3 sublinear-write biconnectivity oracle (Theorem 5.3).
// Construction stores only O(n/k) words: the clusters spanning tree with
// per-edge witness vertices, the BC labeling of the clusters graph, one
// root-biconnectivity bit (and one bridge analog) per cluster tree edge
// (Definition 5, Lemma 5.6), the rootfix "deepest blocked ancestor" values
// that make path checks O(1), the spanning-BCC equivalence over cluster
// tree edges, and per-cluster label offsets (Lemma 5.7).
//
// Queries rebuild the O(k)-sized *local graph* of at most three clusters
// (Definition 4, Figure 3) in symmetric memory — O(k²) expected reads and
// no writes — and combine local Hopcroft–Tarjan answers with the stored
// bits.
//
//wec:immutable
type Oracle struct {
	D *decomp.Decomposition
	g *graph.Graph

	// Clusters spanning tree, in center-index space (0..n'-1).
	ctree         *eulertour.Tree
	parentCluster []int32 // parent index; self for tree roots
	rootVertex    []int32 // the vertex of C on the tree edge to the parent (-1 for roots)
	parentAttach  []int32 // the vertex of parent(C) on that tree edge (-1 for roots)
	treeRoot      []int32 // root cluster index of C's tree

	// BC labeling of the clusters graph (vertex labels on clusters).
	clusterLabel []int32 // canonical: min center index in the component

	// Per-cluster-tree-edge bits, indexed by the child cluster.
	bridgeBit []bool // the tree edge is a bridge of G
	rbV       []bool // root biconnectivity (vertex version, Def. 5)
	rbE       []bool // bridge analog (1-edge connectivity version)

	// Rootfix: deepest ancestor-or-self Y with ¬rb{V,E}[Y] (-1 if none).
	deepBlockV []int32
	deepBlockE []int32

	// Spanning biconnected components: union-find over cluster tree edges
	// (indexed by child cluster); spanBCC is the canonical id.
	spanBCC []int32
	// internalOffset[C] is where C's fully-internal BCCs start in the
	// global label space: the prefix sum of the internal BCC counts of
	// clusters 0..C-1. Internal labels therefore fill [0, spanBase), and
	// spanning BCCs take labels from spanBase up (spanBCC).
	internalOffset []int32
	spanBase       int32

	// NumBCC is the total number of biconnected components with >= 1 edge.
	NumBCC int
}

// localGraph is the Definition 4 local graph of one cluster, rebuilt in
// symmetric memory on demand, with its blocks.
type localGraph struct {
	blocks
	idOf  map[int32]int32 // original vertex -> local id
	nodes []int32         // local id -> original vertex
	// voEdge maps a Vo node's local id to the cluster tree edge it
	// represents, identified by the child cluster index (for the parent
	// edge of C this is C itself).
	voEdge map[int32]int32
}

// BuildOracle constructs the oracle over the graph behind vw using the
// given implicit k-decomposition (pass nil to build one with k = √ω).
//
//wec:mutator build-time constructor; the oracle is not shared until it returns
func BuildOracle(c *parallel.Ctx, vw graph.View, d *decomp.Decomposition, k int, seed uint64) *Oracle {
	m := vw.M
	if d == nil {
		if k <= 0 {
			k = defaultK(m.Omega())
		}
		d = decomp.Build(c, vw, k, seed, decomp.Options{})
	}
	o := &Oracle{D: d, g: vw.G}
	np := d.NumCenters()
	o.parentCluster = make([]int32, np)
	o.rootVertex = make([]int32, np)
	o.parentAttach = make([]int32, np)
	o.treeRoot = make([]int32, np)
	o.clusterLabel = make([]int32, np)
	o.bridgeBit = make([]bool, np)
	o.rbV = make([]bool, np)
	o.rbE = make([]bool, np)
	o.deepBlockV = make([]int32, np)
	o.deepBlockE = make([]int32, np)
	o.spanBCC = make([]int32, np)
	o.internalOffset = make([]int32, np)
	ws := newBuildWorkers(m.Omega(), c.Sym() != nil)
	if np == 0 {
		// No stored center: every component is a small primary-free one.
		o.NumBCC = o.smallComponentBCCs(c, vw, ws)
		return o
	}

	// --- Clusters spanning tree by BFS over the implicit clusters graph.
	// Every pass below recomputes ρ with a search on each use. The three
	// per-cluster or per-vertex passes (neighbor listing, local graphs,
	// small components) are independent across clusters and vertices, so
	// they run in parallel (Theorem 5.3), one chunk per worker; each
	// worker's scratch serves all of its searches.
	for i := range o.parentCluster {
		o.parentCluster[i] = -1
		o.rootVertex[i] = -1
		o.parentAttach[i] = -1
	}
	var roots []int32
	nbrs := make([][]decomp.CenterEdge, np)
	ends := make([]int, np)
	parallel.Pass(c, m, ws, np, func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		// The listings are borrowed from the scratch, so they are copied
		// out, all of a chunk's into one flat slice; nbrs[ci] is cut from
		// it by offset once it has stopped growing. On bounded-degree
		// graphs a cluster has fewer than eight neighbor clusters on
		// average.
		flat := make([]decomp.CenterEdge, 0, 8*(hi-lo))
		for ci := lo; ci < hi; ci++ {
			l := d.NeighborCentersS(w.M, w.Sym, w.sc.dsc, d.Center(w.M, ci))
			flat = append(flat, l...)
			ends[ci] = len(flat)
		}
		start := 0
		for ci := lo; ci < hi; ci++ {
			nbrs[ci] = flat[start:ends[ci]:ends[ci]]
			start = ends[ci]
		}
	})
	for s := int32(0); s < int32(np); s++ {
		if o.parentCluster[s] >= 0 {
			continue
		}
		o.parentCluster[s] = s
		roots = append(roots, s)
		frontier := []int32{s}
		for len(frontier) > 0 {
			var next []int32
			for _, ci := range frontier {
				for _, e := range nbrs[ci] {
					cj := int32(d.CenterIndex(m, e.Other))
					if o.parentCluster[cj] >= 0 {
						continue
					}
					o.parentCluster[cj] = ci
					o.rootVertex[cj] = e.To     // vertex inside the child cluster
					o.parentAttach[cj] = e.From // vertex inside ci
					next = append(next, cj)
				}
			}
			frontier = next
		}
	}
	m.Write(3 * np) // tree arrays
	o.ctree = eulertour.NewForest(m, roots, o.parentCluster)
	// Force the LCA lifting table now so its writes are charged to the
	// construction, keeping queries write-free.
	_ = o.ctree.LCA(m, roots[0], roots[0])
	rootfix := o.ctree.Rootfix(m, func(v int32) int64 {
		if o.parentCluster[v] == v {
			return int64(v)
		}
		return -1
	}, func(par, self int64) int64 {
		if self >= 0 {
			return self
		}
		return par
	}, nil)
	for i := range o.treeRoot {
		o.treeRoot[i] = int32(rootfix[i])
	}
	m.Write(np)

	// --- BC labeling of the clusters graph: wmin/wmax from non-tree
	// cluster edges (multiplicity-aware), low/high leaffix, critical
	// edges, then connectivity over the non-critical cluster edges.
	wmin := make([]int64, np)
	wmax := make([]int64, np)
	isTreeEdge := func(a, b int32) bool {
		return (o.parentCluster[a] == b && a != b) || (o.parentCluster[b] == a && b != a)
	}
	for ci := int32(0); ci < int32(np); ci++ {
		f := int64(o.ctree.First(m, ci))
		wmin[ci], wmax[ci] = f, f
		for _, e := range nbrs[ci] {
			cj := int32(d.CenterIndex(m, e.Other))
			// A tree edge with multiplicity 1 is excluded; everything
			// else (non-tree, or extra parallel copies) contributes.
			if isTreeEdge(ci, cj) && e.Multiplicity == 1 {
				continue
			}
			fj := int64(o.ctree.First(m, cj))
			if fj < wmin[ci] {
				wmin[ci] = fj
			}
			if fj > wmax[ci] {
				wmax[ci] = fj
			}
		}
	}
	m.Write(2 * np)
	low := o.ctree.Leaffix(m, func(v int32) int64 { return wmin[v] },
		func(a, x int64) int64 {
			if x < a {
				return x
			}
			return a
		}, nil)
	high := o.ctree.Leaffix(m, func(v int32) int64 { return wmax[v] },
		func(a, x int64) int64 {
			if x > a {
				return x
			}
			return a
		}, nil)
	m.Write(2 * np)
	critical := make([]bool, np)
	for ci := int32(0); ci < int32(np); ci++ {
		if o.parentCluster[ci] == ci {
			continue
		}
		p := o.parentCluster[ci]
		if int64(o.ctree.First(m, p)) <= low[ci] && high[ci] <= int64(o.ctree.Last(m, p)) {
			critical[ci] = true
		}
	}
	m.Write(np)
	// Components of the clusters graph minus critical tree edges.
	cuf := newRefUF(np)
	for ci := int32(0); ci < int32(np); ci++ {
		for _, e := range nbrs[ci] {
			cj := int32(d.CenterIndex(m, e.Other))
			if cj < ci {
				continue
			}
			if isTreeEdge(ci, cj) && e.Multiplicity == 1 {
				child := ci
				if o.parentCluster[cj] == ci {
					child = cj
				}
				if critical[child] {
					continue
				}
			}
			cuf.union(ci, cj)
		}
	}
	minOf := map[int32]int32{}
	for ci := int32(0); ci < int32(np); ci++ {
		r := cuf.find(ci)
		if cur, ok := minOf[r]; !ok || ci < cur {
			minOf[r] = ci
		}
	}
	for ci := int32(0); ci < int32(np); ci++ {
		o.clusterLabel[ci] = minOf[cuf.find(ci)]
	}
	m.Write(np)
	// Cluster tree edge (P, C) is a bridge of G iff it is a bridge of the
	// clusters multigraph: C's component is the singleton {C}.
	compSize := map[int32]int32{}
	for ci := int32(0); ci < int32(np); ci++ {
		compSize[o.clusterLabel[ci]]++
	}
	for ci := int32(0); ci < int32(np); ci++ {
		if o.parentCluster[ci] != ci && o.clusterLabel[ci] == ci && compSize[ci] == 1 {
			o.bridgeBit[ci] = true
		}
	}
	m.Write(np)

	// --- Per-cluster local-graph pass: root-biconnectivity bits for each
	// tree edge, spanning-BCC unions, and internal BCC counts (Lemma 5.6,
	// Lemma 5.7). One local graph per cluster: O(k²) each, O(nk) total.
	// Each chunk writes rbV/rbE only at its own clusters' children and
	// internalCount only at its own clusters, and collects its
	// spanning-BCC unions, applied after the pass (the canonical ids are
	// class minima, so the order of unions does not matter).
	internalCount := make([]int32, np)
	parallel.Pass(c, m, ws, np, func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		for ci := int32(lo); ci < int32(hi); ci++ {
			lg := o.buildLocal(w.M, w.Sym, w.sc, ci)
			members, _ := w.sc.dsc.Listing()
			w.clustered += len(members)
			// Bits for each child edge D: can one pass from D through ci
			// to ci's parent side?
			if o.parentCluster[ci] != ci {
				exit := lg.idOf[o.parentAttach[ci]]
				for voID, child := range lg.voEdge {
					if child == ci {
						continue // the parent edge itself
					}
					y := voID
					o.rbV[child] = lg.sameBCC(y, exit)
					o.rbE[child] = lg.twoEdge[y] == lg.twoEdge[exit]
				}
			} else {
				// Root cluster: no parent side; mark children passable
				// only for path checks that terminate here (unused
				// values).
				for _, child := range lg.voEdge {
					if child != ci {
						o.rbV[child] = true
						o.rbE[child] = true
					}
				}
			}
			// Spanning-BCC equivalence: tree edges whose Vo nodes share a
			// local BCC belong to one biconnected component of G.
			vos := w.vos[:0]
			for voID := range lg.voEdge {
				vos = append(vos, voID)
			}
			w.vos = vos
			for i := 0; i < len(vos); i++ {
				for j := i + 1; j < len(vos); j++ {
					if lg.sameBCC(vos[i], vos[j]) {
						w.unions = append(w.unions, [2]int32{lg.voEdge[vos[i]], lg.voEdge[vos[j]]})
					}
				}
			}
			// Internal BCCs: local BCCs containing no Vo node.
			voBCC := slices.Grow(w.voBCC[:0], lg.numBCC)[:lg.numBCC]
			clear(voBCC)
			w.voBCC = voBCC
			for _, voID := range vos {
				for _, b := range lg.vertexBlocks(voID) {
					voBCC[b] = true
				}
			}
			cnt := int32(0)
			for _, hasVo := range voBCC {
				if !hasVo {
					cnt++
				}
			}
			internalCount[ci] = cnt
		}
	})
	huf := newRefUF(np) // H-graph: nodes are tree edges keyed by child cluster
	clustered := 0
	for _, w := range ws {
		for _, u := range w.unions {
			huf.union(u[0], u[1])
		}
		clustered += w.clustered
	}
	// Prefix sums for internal label offsets; spanning ids live above.
	var off int32
	for ci := 0; ci < np; ci++ {
		o.internalOffset[ci] = off
		off += internalCount[ci]
	}
	o.spanBase = off
	m.Write(np)
	hmin := map[int32]int32{}
	spanComps := map[int32]bool{}
	for ci := int32(0); ci < int32(np); ci++ {
		if o.parentCluster[ci] == ci {
			continue
		}
		r := huf.find(ci)
		if cur, ok := hmin[r]; !ok || ci < cur {
			hmin[r] = ci
		}
	}
	for ci := int32(0); ci < int32(np); ci++ {
		if o.parentCluster[ci] == ci {
			o.spanBCC[ci] = -1
			continue
		}
		o.spanBCC[ci] = o.spanBase + hmin[huf.find(ci)]
		spanComps[o.spanBCC[ci]] = true
	}
	m.Write(np)
	o.NumBCC = int(off) + len(spanComps)

	// --- Rootfix for deepest blocked ancestors.
	dbv := o.ctree.Rootfix(m, func(v int32) int64 {
		if o.parentCluster[v] != v && !o.rbV[v] {
			return int64(o.ctree.Depth(m, v))
		}
		return -1
	}, func(par, self int64) int64 {
		if self > par {
			return self
		}
		return par
	}, nil)
	dbe := o.ctree.Rootfix(m, func(v int32) int64 {
		if o.parentCluster[v] != v && !o.rbE[v] {
			return int64(o.ctree.Depth(m, v))
		}
		return -1
	}, func(par, self int64) int64 {
		if self > par {
			return self
		}
		return par
	}, nil)
	for i := range o.deepBlockV {
		o.deepBlockV[i] = int32(dbv[i])
		o.deepBlockE[i] = int32(dbe[i])
	}
	m.Write(2 * np)

	// --- Count the biconnected components of small primary-free
	// components (answered implicitly at query time, but NumBCC should
	// cover the whole graph). The clusters partition exactly the vertices
	// whose ρ is a stored center, so when the listings above covered all
	// n vertices there is no such component and the pass is skipped.
	if clustered < vw.G.N() {
		o.NumBCC += o.smallComponentBCCs(c, vw, ws)
	}
	return o
}

// smallComponentBCCs counts the biconnected components of the small
// primary-free components: one ρ query per vertex, in parallel, and one
// materialization per implicit component. O(nk) expected reads.
func (o *Oracle) smallComponentBCCs(c *parallel.Ctx, vw graph.View, ws []*buildWorker) int {
	d := o.D
	parallel.Pass(c, vw.M, ws, vw.G.N(), func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			s := d.RhoS(w.M, w.Sym, w.sc.dsc, v)
			if d.CenterIndex(w.M, s) < 0 && s == v {
				b, _ := o.smallComponent(w.M, w.Sym, w.sc, v)
				w.smallBCCs += b.numBCC
			}
		}
	})
	n := 0
	for _, w := range ws {
		n += w.smallBCCs
	}
	return n
}

// buildWorker is one processor's private state in BuildOracle's parallel
// passes (parallel.Pass): its own meter and symmetric-memory tracker (nil
// when the build tracks none) and scratch, plus what its chunks hand back
// to the sequential code between passes.
type buildWorker struct {
	parallel.Worker
	sc        *Scratch
	unions    [][2]int32 // spanning-BCC unions of the local-graph pass
	vos       []int32    // local-graph pass: one cluster's Vo nodes
	voBCC     []bool     // local-graph pass: local blocks holding a Vo node
	clustered int        // cluster members listed by the local-graph pass
	smallBCCs int        // BCCs of the small components this worker found
}

// newBuildWorkers returns one worker per GOMAXPROCS processor.
func newBuildWorkers(omega int, trackSym bool) []*buildWorker {
	ws := make([]*buildWorker, runtime.GOMAXPROCS(0))
	for i := range ws {
		ws[i] = &buildWorker{Worker: parallel.NewWorker(omega, trackSym), sc: NewScratch()}
	}
	return ws
}

func defaultK(omega int) int {
	k := 2
	for k*k < omega {
		k++
	}
	return k
}
