package bicc

import (
	"slices"

	"repro/internal/asym"
	"repro/internal/decomp"
	"repro/internal/graph"
)

// This file holds the query side of the §5.3 oracle: on-demand local-graph
// construction (Definition 4) and the bridge / articulation-point /
// biconnected / 1-edge-connected / edge-label queries, each touching at
// most three local graphs plus O(1) stored words.
//
// Every query method comes in two forms: the plain paper-pristine form
// (IsBridge, ...) that allocates per call, and an S-variant (IsBridgeS,
// ...) threading an optional reusable *Scratch and *ClusterCache — the
// serving layer's warm path. The plain form is the S form with nil for
// both; answers and charged costs are identical across all four
// combinations (cache hits replay the fill's recorded charges, see
// cache.go).
//
// Concurrency contract: every stored field of Oracle is written by
// BuildOracle and read-only afterwards. Local graphs and small-component
// materializations are rebuilt per call in symmetric memory and never
// cached *on the Oracle*; the optional ClusterCache is the caller-owned,
// internally locked exception, and it keeps the paper's O(k²) read cost
// visible by replaying the fill-time charges on every hit. The one lazy
// structure reachable from a query, the Euler-tour LCA lifting table, is
// forced at construction and guarded by a sync.Once in package eulertour.
// Queries may therefore run from any number of goroutines concurrently
// (scratches must be goroutine-local; a cache may be shared); each call
// charges only the Meter/SymTracker it is handed.

// clusterOf returns the center index of v's cluster, or -1 for vertices of
// small primary-free components (implicit centers).
func (o *Oracle) clusterOf(m *asym.Meter, sym *asym.SymTracker, v int32) int32 {
	return o.clusterOfS(m, sym, nil, v)
}

// clusterOfS is clusterOf with a reusable search scratch (nil allocates
// per call).
//
//wec:noalloc
func (o *Oracle) clusterOfS(m *asym.Meter, sym *asym.SymTracker, sc *decomp.Scratch, v int32) int32 {
	s := o.D.RhoS(m, sym, sc, v)
	return int32(o.D.CenterIndex(m, s))
}

// local rebuilds the Definition 4 local graph of cluster ci in symmetric
// memory: O(k²) expected reads, no writes.
func (o *Oracle) local(m *asym.Meter, sym *asym.SymTracker, ci int32) *localGraph {
	return o.buildLocal(m, sym, nil, ci)
}

// buildLocal is the local-graph construction behind local (nil sc) and the
// cache fill of localS (any sc; nil allocates one for the call). It lists
// the cluster once: NeighborCentersS runs one ρ search per vertex of N[C]
// and records each ρ in the search scratch, and every later membership
// test and boundary-edge cluster lookup reads that record. The scratch
// also supplies the transient build buffers — tree-neighbor list, edge
// list, buffered boundary edges, labels, the tree-edge skip set with its
// flags and the solver's DFS state — while the returned *localGraph
// always owns its maps, node list and blocks: it is the artifact the
// ClusterCache retains, so nothing in it may alias the scratch.
func (o *Oracle) buildLocal(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, ci int32) *localGraph {
	if sc == nil {
		sc = NewScratch()
	}
	d, dsc := o.D, sc.dsc
	s := d.Center(m, int(ci))
	nbrs := d.NeighborCentersS(m, sym, dsc, s)
	members, listed := dsc.Listing()
	lg := &localGraph{
		idOf:   make(map[int32]int32, 2*len(members)),
		voEdge: map[int32]int32{},
	}
	addNode := func(v int32) int32 {
		if id, ok := lg.idOf[v]; ok {
			return id
		}
		id := int32(len(lg.nodes))
		lg.idOf[v] = id
		lg.nodes = append(lg.nodes, v)
		return id
	}
	for _, v := range members {
		addNode(v)
	}
	// The local graph's own words, plus the listing's ρ record, which
	// every pass below reads after NeighborCentersS has returned.
	if sym != nil {
		sym.Acquire(4*len(members) + listed)
		defer sym.Release(4*len(members) + listed)
	}

	// Tree neighbors: the parent edge plus one edge per child cluster.
	tns := sc.tns[:0]
	if o.parentCluster[ci] != ci {
		// The grouping label of a tree edge is the BC label of its lower
		// endpoint (§5.2), so the parent edge (P, C) carries l(C) — two
		// tree edges incident to C share a clusters-graph BCC exactly when
		// their labels match, which is the Definition 4 chaining rule.
		tns = append(tns, treeNbr{
			child: ci, inV: o.rootVertex[ci], outV: o.parentAttach[ci],
			isPar: true, labelC: o.clusterLabel[ci],
		})
		m.Read(3)
	}
	// Children are found among neighbor clusters.
	for _, e := range nbrs {
		cj := int32(d.CenterIndex(m, e.Other))
		m.Read(1)
		if o.parentCluster[cj] == ci {
			tns = append(tns, treeNbr{
				child: cj, inV: o.parentAttach[cj], outV: o.rootVertex[cj],
				labelC: o.clusterLabel[cj],
			})
			m.Read(3)
		}
	}

	edges := sc.edges[:0]
	addEdge := func(a, b int32) { edges = append(edges, [2]int32{addNode(a), addNode(b)}) }

	// Category 3 checks a boundary edge against the tree edges, which
	// Category 1b adds (one copy each), so the scan skips exactly one copy
	// of each; further parallel copies stay boundary edges and re-attach
	// to the tree edge's own Vo node. The tree edges are kept as sorted
	// keys, so the check per boundary edge is a binary search rather than
	// a scan of tns, and treeSkipped flags the keys whose copy is skipped.
	tree := sc.tree[:0]
	for _, tn := range tns {
		tree = append(tree, edgeKey(tn.inV, tn.outV))
	}
	slices.Sort(tree)
	skipped := slices.Grow(sc.treeSkipped[:0], len(tree))[:len(tree)]
	clear(skipped)

	// One scan of the members' adjacency serves Categories 1a and 3.
	// Category 1a: intra-cluster edges, each once; self-loops dropped.
	// Category 3: boundary edges (v1 in C, v2 outside, not a tree edge)
	// re-attach to the Vo node whose cluster subtree contains cluster(v2).
	// Category 3 edges are buffered and appended after Categories 1b and
	// 2, so the local edge order — and with it the block numbering — is
	// that of three separate passes.
	vw := graph.View{G: o.g, M: m}
	bound := sc.bound[:0]
	for _, v := range members {
		deg := vw.Degree(int(v))
		for i := 0; i < deg; i++ {
			u := vw.Neighbor(int(v), i)
			t := dsc.ListedRho(u)
			if t == s {
				if u > v {
					addEdge(v, u)
				}
				continue
			}
			if i, isTree := slices.BinarySearch(tree, edgeKey(v, u)); isTree && !skipped[i] {
				skipped[i] = true
				continue
			}
			cu := int32(d.CenterIndex(m, t))
			vo := int32(-1)
			for _, tn := range tns {
				if tn.isPar {
					continue
				}
				if o.ctree.IsAncestor(m, tn.child, cu) {
					vo = tn.outV
					break
				}
			}
			if vo < 0 {
				// Not under any child: the external cluster lies on the
				// parent side.
				if o.parentCluster[ci] == ci {
					continue // isolated tree; cannot happen on valid input
				}
				vo = o.parentAttach[ci]
			}
			bound = append(bound, [2]int32{v, vo})
		}
	}
	// Category 1b: the cluster tree edges, registering Vo nodes.
	for _, tn := range tns {
		vo := addNode(tn.outV)
		lg.voEdge[vo] = tn.child
		addEdge(tn.inV, tn.outV)
	}
	// Category 2: chain same-labeled tree neighbors' outside vertices.
	// Labels are processed in sorted order — not Go's random map order — so
	// the local edge list (and with it the block numbering) is a
	// deterministic function of the snapshot, which is what lets the cache
	// equivalence tests compare cached and fresh builds by equality.
	labels := sc.labels[:0]
	for _, tn := range tns {
		if !slices.Contains(labels, tn.labelC) { // |tns| is O(k); linear dedup
			labels = append(labels, tn.labelC)
		}
	}
	slices.Sort(labels)
	for _, lab := range labels {
		prev, havePrev := int32(0), false
		for _, tn := range tns {
			if tn.labelC != lab {
				continue
			}
			if havePrev {
				addEdge(prev, tn.outV)
			}
			prev, havePrev = tn.outV, true
		}
	}
	// Category 3, appended.
	for _, e := range bound {
		addEdge(e[0], e[1])
	}
	lg.blocks = solveBlocks(&sc.bs, len(lg.nodes), edges)
	m.Op(len(lg.nodes) + len(edges))
	sc.tns, sc.tree, sc.treeSkipped, sc.edges, sc.labels, sc.bound = tns, tree, skipped, edges, labels, bound
	return lg
}

// smallComponent answers queries inside a primary-free small component by
// materializing it (it has fewer than k vertices) in symmetric memory. sc
// lends the solver's DFS state (nil allocates it for the call).
func (o *Oracle) smallComponent(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32) (blocks, map[int32]int32) {
	idOf := map[int32]int32{v: 0}
	nodes := []int32{v}
	var edges [][2]int32
	vw := graph.View{G: o.g, M: m}
	for qi := 0; qi < len(nodes); qi++ {
		x := nodes[qi]
		deg := vw.Degree(int(x))
		for i := 0; i < deg; i++ {
			u := vw.Neighbor(int(x), i)
			if _, ok := idOf[u]; !ok {
				idOf[u] = int32(len(nodes))
				nodes = append(nodes, u)
			}
			if x < u {
				edges = append(edges, [2]int32{idOf[x], idOf[u]})
			}
		}
	}
	if sym != nil {
		sym.Acquire(2 * len(nodes))
		defer sym.Release(2 * len(nodes))
	}
	return solveBlocks(sc.bscratch(), len(nodes), edges), idOf
}

// IsBridge reports whether edge {u,v} is a bridge of G. Three cases (§5.3):
// in-cluster edges use the local graph (Lemma 5.5), cluster tree edges use
// the precomputed clusters-graph bridge bit, cross edges are never bridges.
func (o *Oracle) IsBridge(m *asym.Meter, sym *asym.SymTracker, u, v int32) bool {
	return o.IsBridgeS(m, sym, nil, nil, u, v)
}

// IsBridgeS is IsBridge with an optional reusable scratch and local-graph
// cache — the serving layer's warm path. Identical answers and charges.
//
//wec:noalloc
func (o *Oracle) IsBridgeS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, u, v int32) bool {
	cu := o.clusterOfS(m, sym, sc.dscratch(), u)
	cv := o.clusterOfS(m, sym, sc.dscratch(), v)
	if cu < 0 || cv < 0 {
		if cu != cv {
			return false
		}
		b, id := o.smallComponent(m, sym, sc, u)
		return b.isBridge(id[u], id[v])
	}
	if cu == cv {
		lg := o.localS(m, sym, sc, cc, cu)
		return lg.isBridge(lg.idOf[u], lg.idOf[v])
	}
	// Tree edge between adjacent clusters?
	child := int32(-1)
	if o.parentCluster[cv] == cu && ((o.rootVertex[cv] == v && o.parentAttach[cv] == u) || (o.rootVertex[cv] == u && o.parentAttach[cv] == v)) {
		child = cv
	}
	if o.parentCluster[cu] == cv && ((o.rootVertex[cu] == u && o.parentAttach[cu] == v) || (o.rootVertex[cu] == v && o.parentAttach[cu] == u)) {
		child = cu
	}
	m.Read(4)
	if child >= 0 {
		m.Read(1)
		return o.bridgeBit[child]
	}
	return false // cross edge
}

// IsArticulation reports whether v is a cut vertex of G: exactly when it is
// one in its cluster's local graph (§5.3 "Articulation points").
func (o *Oracle) IsArticulation(m *asym.Meter, sym *asym.SymTracker, v int32) bool {
	return o.IsArticulationS(m, sym, nil, nil, v)
}

// IsArticulationS is IsArticulation with an optional reusable scratch and
// local-graph cache — the serving layer's warm path.
//
//wec:noalloc
func (o *Oracle) IsArticulationS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, v int32) bool {
	ci := o.clusterOfS(m, sym, sc.dscratch(), v)
	if ci < 0 {
		b, id := o.smallComponent(m, sym, sc, v)
		return b.cut[id[v]]
	}
	lg := o.localS(m, sym, sc, cc, ci)
	return lg.cut[lg.idOf[v]]
}

// pathCheck runs the shared machinery of the pairwise queries: it verifies
// the cluster tree path between c1 and c2 is passable under the given
// blocked-depth array and local predicate, with vertices v1, v2 as the
// endpoints inside c1, c2. sc and cc are the optional warm-path scratch
// and local-graph cache (both nil-safe).
//
//wec:noalloc
func (o *Oracle) pathCheck(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, v1, v2 int32, c1, c2 int32,
	deepBlock []int32,
	localPred func(lg *localGraph, a, b int32) bool) bool {
	m.Read(2)
	if o.treeRoot[c1] != o.treeRoot[c2] {
		return false // different components
	}
	if c1 == c2 {
		lg := o.localS(m, sym, sc, cc, c1)
		return localPred(lg, lg.idOf[v1], lg.idOf[v2])
	}
	cl := o.ctree.LCA(m, c1, c2)
	dl := o.ctree.Depth(m, cl)

	// endpointSide handles one endpoint's chain up to the LCA: the local
	// exit check inside its own cluster, the blocked-ancestor test for the
	// intermediate clusters, and returns the Vo entry vertex into the LCA
	// cluster (or the endpoint itself when its cluster IS the LCA).
	endpointSide := func(v int32, c int32) (int32, bool) {
		if c == cl {
			return v, true
		}
		// Exit check inside c: v must reach the parent attach vertex.
		lg := o.localS(m, sym, sc, cc, c)
		m.Read(1)
		if !localPred(lg, lg.idOf[v], lg.idOf[o.parentAttach[c]]) {
			return 0, false
		}
		// Intermediate clusters: all Y on the chain with depth >= dl+2
		// must be passable.
		m.Read(1)
		if deepBlock[c] >= dl+2 {
			return 0, false
		}
		// Entry into the LCA cluster: the Vo node of the child on c's side.
		top := o.ctree.AncestorAtDepth(m, c, dl+1)
		m.Read(1)
		return o.rootVertex[top], true
	}
	a1, ok := endpointSide(v1, c1)
	if !ok {
		return false
	}
	a2, ok := endpointSide(v2, c2)
	if !ok {
		return false
	}
	lg := o.localS(m, sym, sc, cc, cl)
	return localPred(lg, lg.idOf[a1], lg.idOf[a2])
}

// Biconnected reports whether no single vertex removal disconnects v1 from
// v2 — equivalently, whether they share a biconnected component. O(k²)
// expected reads, no writes.
func (o *Oracle) Biconnected(m *asym.Meter, sym *asym.SymTracker, v1, v2 int32) bool {
	return o.BiconnectedS(m, sym, nil, nil, v1, v2)
}

// BiconnectedS is Biconnected with an optional reusable scratch and
// local-graph cache — the serving layer's warm path.
//
//wec:noalloc
func (o *Oracle) BiconnectedS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, v1, v2 int32) bool {
	if v1 == v2 {
		return true
	}
	c1 := o.clusterOfS(m, sym, sc.dscratch(), v1)
	c2 := o.clusterOfS(m, sym, sc.dscratch(), v2)
	if c1 < 0 || c2 < 0 {
		if c1 != c2 {
			return false
		}
		b, id := o.smallComponent(m, sym, sc, v1)
		if _, ok := id[v2]; !ok {
			return false
		}
		return b.sameBCC(id[v1], id[v2])
	}
	return o.pathCheck(m, sym, sc, cc, v1, v2, c1, c2, o.deepBlockV,
		func(lg *localGraph, a, b int32) bool {
			if a == b {
				return true
			}
			return lg.sameBCC(a, b)
		})
}

// OneEdgeConnected reports whether no single edge removal disconnects v1
// from v2 (they are in the same 2-edge-connected component). O(k²) expected
// reads, no writes.
func (o *Oracle) OneEdgeConnected(m *asym.Meter, sym *asym.SymTracker, v1, v2 int32) bool {
	return o.OneEdgeConnectedS(m, sym, nil, nil, v1, v2)
}

// OneEdgeConnectedS is OneEdgeConnected with an optional reusable scratch
// and local-graph cache — the serving layer's warm path.
//
//wec:noalloc
func (o *Oracle) OneEdgeConnectedS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, v1, v2 int32) bool {
	if v1 == v2 {
		return true
	}
	c1 := o.clusterOfS(m, sym, sc.dscratch(), v1)
	c2 := o.clusterOfS(m, sym, sc.dscratch(), v2)
	if c1 < 0 || c2 < 0 {
		if c1 != c2 {
			return false
		}
		b, id := o.smallComponent(m, sym, sc, v1)
		if _, ok := id[v2]; !ok {
			return false
		}
		return b.twoEdge[id[v1]] == b.twoEdge[id[v2]]
	}
	return o.pathCheck(m, sym, sc, cc, v1, v2, c1, c2, o.deepBlockE,
		func(lg *localGraph, a, b int32) bool {
			if a == b {
				return true
			}
			return lg.twoEdge[a] == lg.twoEdge[b]
		})
}

// EdgeBCCLabel returns a globally unique label for the biconnected
// component containing edge {u,v} (the standard output of [21, 32],
// answered in O(k²) reads per §5.3 "Queries on biconnected-component
// labels"). Labels below spanBase are cluster-internal BCCs; labels at or
// above it are spanning BCCs keyed by their cluster-tree-edge class.
// Returns -1 for self-loops and absent edges.
func (o *Oracle) EdgeBCCLabel(m *asym.Meter, sym *asym.SymTracker, u, v int32) int32 {
	if u == v {
		return -1
	}
	cu := o.clusterOf(m, sym, u)
	cv := o.clusterOf(m, sym, v)
	if cu < 0 || cv < 0 {
		if cu != cv {
			return -1
		}
		// Small components have no stored offsets; label by the component's
		// local BCC id offset by the implicit center (unique per component,
		// disjoint from stored labels by sign trick: use negative space).
		// The component is materialized from that center, so its block
		// numbering is the same whichever of its edges is asked.
		r := o.D.Rho(m, sym, u)
		b, id := o.smallComponent(m, sym, nil, r)
		lab := b.edgeLabel(id[u], id[v])
		if lab < 0 {
			return -1
		}
		return -(r*int32(o.D.K()) + lab + 2)
	}
	if cu == cv {
		lg := o.local(m, sym, cu)
		return o.globalize(m, lg, cu, lg.edgeLabel(lg.idOf[u], lg.idOf[v]))
	}
	// Tree edge?
	for _, cand := range [][3]int32{{cu, u, v}, {cv, v, u}} {
		c, a, b := cand[0], cand[1], cand[2]
		m.Read(3)
		if o.parentCluster[c] != c && o.rootVertex[c] == a && o.parentAttach[c] == b {
			return o.spanBCC[c]
		}
	}
	// Cross edge: resolve inside u's cluster via the replaced edge (u, vo).
	lg := o.local(m, sym, cu)
	// The replaced edge's Vo endpoint: find it by scanning u's incident
	// local edges for a Vo neighbor whose subtree holds cv.
	uid := lg.idOf[u]
	for _, w := range lg.neighbors(uid) { // the local graph lives in symmetric memory: free to scan
		if child, ok := lg.voEdge[w]; ok {
			m.Read(1)
			inSubtree := o.ctree.IsAncestor(m, child, cv)
			onParentSide := child == cu && !o.ctree.IsAncestor(m, cu, cv)
			if (child != cu && inSubtree) || onParentSide {
				return o.globalize(m, lg, cu, lg.edgeLabel(uid, w))
			}
		}
	}
	return -1
}

// globalize maps a local BCC id to the global label space: spanning BCCs
// resolve through the cluster-tree-edge classes, internal BCCs through the
// cluster's prefix offset plus the BCC's rank among internal BCCs.
func (o *Oracle) globalize(m *asym.Meter, lg *localGraph, ci int32, localBCC int32) int32 {
	if localBCC < 0 {
		return -1
	}
	// Spanning: does this local BCC contain a Vo node?
	voBCC := map[int32]int32{} // local BCC -> tree-edge key
	for voID, child := range lg.voEdge {
		for _, b := range lg.vertexBlocks(voID) {
			voBCC[b] = child
		}
	}
	if child, ok := voBCC[localBCC]; ok {
		m.Read(1)
		return o.spanBCC[child]
	}
	// Internal: rank among internal BCC ids (deterministic: the solver
	// numbers blocks in DFS pop order).
	rank := int32(0)
	for b := int32(0); b < localBCC; b++ {
		if _, spanning := voBCC[b]; !spanning {
			rank++
		}
	}
	m.Read(1)
	return o.internalOffset[ci] + rank
}
