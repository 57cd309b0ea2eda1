package conn

import (
	"math"

	"repro/internal/asym"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/ldd"
	"repro/internal/parallel"
	"repro/internal/spanning"
)

// Oracle is the sublinear-write connectivity oracle of Theorem 4.4: an
// implicit k-decomposition plus one component label per center. For
// bounded-degree graphs with k = √ω, construction performs O(n/√ω) writes
// and O(√ω·n) work; a query costs O(√ω) expected reads and no writes.
//
// Concurrency contract: after BuildOracle or BuildOver returns, the oracle
// is immutable. Query, Connected, and VisitSpanningForest touch no oracle
// state outside the Meter and SymTracker passed to them (their scratch
// lives in per-call symmetric memory), so any number of goroutines may
// query one Oracle concurrently as long as each uses its own meter — or
// shares one, since Meter and SymTracker are themselves safe for
// concurrent use. Package serve relies on this to shard query batches
// across workers.
//
//wec:immutable
type Oracle struct {
	D *decomp.Decomposition
	// labels[i] is the canonical component label of the i-th center: the
	// vertex id of the smallest center in its clusters-graph component, so
	// a query returns it as read. O(n/k) words.
	labels *asym.Array
	// NumComponents counts components that contain at least one stored
	// center; small primary-free components are answered implicitly and
	// not counted here.
	NumComponents int
	// remap, when non-nil, redirects component labels merged by dynamic
	// edge insertions (ApplyInsertions in dynamic.go): after the base
	// lookup, a label that is a remap key resolves to the canonical label
	// of its merged component. Nil for freshly built oracles. The map is
	// immutable after construction, so concurrent queries stay safe.
	remap map[int32]int32
	// forest, when non-nil, is the explicit spanning forest of the
	// oracle's *current* effective graph (base plus applied insertions
	// minus applied deletions) — the structure ApplyDeletions needs.
	// Maintained copy-on-write by the dynamic-update path (dynamic.go);
	// queries never read it, so it takes no part in the concurrency
	// contract above.
	forest *Forest
	// chainDepth counts the incremental patches (ApplyInsertions /
	// ApplyDeletions generations) separating this oracle from its last
	// full decomposition — the remap-chain length a re-base collapses.
	chainDepth int
}

// clustersGraph is the implicit clusters graph: vertex i is the i-th center
// of the decomposition; neighbors are recomputed on every visit via the
// O(k²) listing of Lemma 4.3 and never written to asymmetric memory. The
// listings share one search scratch, which is safe because the LDD calls
// Visit sequentially and no callback touches the scratch.
type clustersGraph struct {
	d   *decomp.Decomposition
	m   *asym.Meter
	sym *asym.SymTracker
	sc  *decomp.Scratch
}

// Size returns the number of centers.
func (cg clustersGraph) Size() int { return cg.d.NumCenters() }

// Visit enumerates the clusters-graph neighbors of center index v.
func (cg clustersGraph) Visit(v int32, f func(u int32)) {
	s := cg.d.Center(cg.m, int(v))
	for _, e := range cg.d.NeighborCentersS(cg.m, cg.sym, cg.sc, s) {
		f(int32(cg.d.CenterIndex(cg.m, e.Other)))
	}
}

// DefaultK returns the paper's choice k = ⌈√ω⌉ (at least 2).
func DefaultK(omega int) int {
	k := int(math.Ceil(math.Sqrt(float64(omega))))
	if k < 2 {
		k = 2
	}
	return k
}

// BuildOracle constructs a connectivity oracle over the bounded-degree
// graph behind vw. k <= 0 selects √ω. All costs are charged to vw.M and
// symmetric scratch is tracked on c's tracker. It is decomp.Build followed
// by BuildOver, and charges exactly what the two charge together.
func BuildOracle(c *parallel.Ctx, vw graph.View, k int, seed uint64) *Oracle {
	if k <= 0 {
		k = DefaultK(vw.M.Omega())
	}
	// Step 1: implicit k-decomposition (Theorem 3.1).
	d := decomp.Build(c, vw, k, seed, decomp.Options{})
	return BuildOver(c, vw.M, d, seed)
}

// BuildOver constructs a connectivity oracle over a prebuilt implicit
// k-decomposition d of d.Graph(), using d's k. seed drives the low-diameter
// decomposition of the clusters graph; passing the seed d was built with
// gives exactly the oracle BuildOracle builds. Only the work on top of d is
// charged (to m, and symmetric scratch to c's tracker), so a caller that
// hands d to the biconnectivity oracle too builds the decomposition once.
//
//wec:mutator build-time constructor; the oracle is not shared until it returns
func BuildOver(c *parallel.Ctx, m *asym.Meter, d *decomp.Decomposition, seed uint64) *Oracle {
	k := d.K()
	// Step 2: the write-efficient connectivity algorithm of §4.2 with
	// β = 1/k on the *implicit* clusters graph: the LDD queries neighbor
	// lists on demand (Lemma 4.3) instead of writing Θ(m') edges.
	cg := clustersGraph{d: d, m: m, sym: c.Sym(), sc: decomp.NewScratch()}
	nPrime := cg.Size()
	o := &Oracle{D: d}
	if nPrime == 0 {
		o.labels = asym.NewArray(m, 0)
		return o
	}
	beta := 1.0 / float64(k)
	dec := ldd.Decompose(c, cg, m, beta, seed+0x9e37)

	// Contract: pack cross-cluster clusters-graph edges explicitly (the
	// contracted graph has O(n') vertices and O(βm') expected edges, so
	// it may be written, per Theorem 4.2 step 4).
	var cross [][2]int32
	for i := 0; i < nPrime; i++ {
		ci := dec.Cluster.Get(i)
		cg.Visit(int32(i), func(j int32) {
			m.Read(1)
			if int32(i) < j && dec.Cluster.Raw()[j] != ci { //wec:unmetered cluster read charged by the m.Read(1) above
				cross = append(cross, [2]int32{ci, dec.Cluster.Raw()[j]}) //wec:unmetered re-reads the slot charged above
				m.Write(2)
			}
		})
	}
	labels := asym.NewArray(m, nPrime)
	spanning.Components(m, nPrime, cross, labels)
	// Center i's component label: follow its LDD source's contracted
	// label (a source's own label never changes, so update order is free).
	for i := 0; i < nPrime; i++ {
		labels.Set(i, labels.Get(int(dec.Cluster.Get(i))))
	}
	// Canonicalize to the smallest center per component and store its
	// vertex id (one Center read per center), so a query returns the
	// label it reads without resolving it to a center.
	minOf := map[int32]int32{}
	for i := 0; i < nPrime; i++ {
		lab := labels.Get(i)
		if cur, ok := minOf[lab]; !ok || int32(i) < cur {
			minOf[lab] = int32(i)
		}
	}
	for i := 0; i < nPrime; i++ {
		labels.Set(i, d.Center(m, int(minOf[labels.Get(i)])))
	}
	o.labels = labels
	o.NumComponents = len(minOf)
	return o
}

// Query returns the component label of v: the smallest center id in v's
// component, or the implicit center itself for small primary-free
// components. O(k) expected reads (the ρ query) plus a constant three for
// a stored center (its rank-directory word and entry, then its label); no
// writes.
func (o *Oracle) Query(m *asym.Meter, sym *asym.SymTracker, v int32) int32 {
	return o.QueryS(m, sym, nil, v)
}

// QueryS is Query with a caller-provided reusable search scratch (nil
// allocates per call) — the serving layer's zero-alloc query path. Charged
// costs are identical to Query's.
//
//wec:noalloc
func (o *Oracle) QueryS(m *asym.Meter, sym *asym.SymTracker, sc *decomp.Scratch, v int32) int32 {
	s := o.D.RhoS(m, sym, sc, v)
	var lab int32
	if i := o.D.CenterIndex(m, s); i < 0 {
		// Implicit center of a small primary-free component: the center id
		// itself is the canonical label (it is the component's smallest
		// vertex and can collide with no stored component's label, which
		// is always a stored center in a different component).
		lab = s
	} else {
		m.Read(1)
		lab = o.labels.Raw()[i] //wec:unmetered charged by the m.Read(1) above
	}
	if o.remap != nil {
		m.Read(1)
		if to, ok := o.remap[lab]; ok {
			lab = to
		}
	}
	return lab
}

// Connected reports whether u and v are in the same component.
func (o *Oracle) Connected(m *asym.Meter, sym *asym.SymTracker, u, v int32) bool {
	return o.Query(m, sym, u) == o.Query(m, sym, v)
}

// ConnectedS is Connected with a reusable search scratch shared by both ρ
// queries (nil allocates per call).
//
//wec:noalloc
func (o *Oracle) ConnectedS(m *asym.Meter, sym *asym.SymTracker, sc *decomp.Scratch, u, v int32) bool {
	return o.QueryS(m, sym, sc, u) == o.QueryS(m, sym, sc, v)
}

// Remap returns a copy of the dynamic-insertion label remap table (nil for
// a freshly built oracle). It is the durable trace of the incremental
// path: the serving layer's store persists it with each snapshot so the
// label state a fleet acknowledged survives restarts. Unmetered — this is
// an I/O-path accessor, not a query.
func (o *Oracle) Remap() map[int32]int32 {
	if o.remap == nil {
		return nil
	}
	out := make(map[int32]int32, len(o.remap))
	for k, v := range o.remap {
		out[k] = v
	}
	return out
}

// ChainDepth returns the number of incremental patches applied since the
// oracle's last full decomposition build (0 for a fresh build). The serving
// layer's strategy engine re-bases the oracle once this crosses its
// configured budget.
func (o *Oracle) ChainDepth() int { return o.chainDepth }

// ForestEdges returns the explicit spanning forest's edges, normalized and
// sorted (nil when the oracle carries no forest). Like Remap, this is the
// I/O-path accessor the durable store persists with each snapshot;
// unmetered.
func (o *Oracle) ForestEdges() [][2]int32 {
	if o.forest == nil {
		return nil
	}
	return o.forest.EdgeList()
}

// HasForest reports whether the oracle carries an explicit spanning forest
// (the precondition of ApplyDeletions).
func (o *Oracle) HasForest() bool { return o.forest != nil }

// VisitSpanningForest enumerates the edges of a spanning forest of the
// whole graph, realizing the spanning-forest remark at the end of §4.3:
// the per-cluster shortest-path trees of Lemma 3.3 are *recomputed* (never
// stored), one witness edge joins each pair of clusters chosen by a BFS
// over the implicit clusters graph, and small primary-free components
// contribute their own search trees. The enumeration performs O(√ω·n)
// expected reads and zero asymmetric writes; the visited-cluster marks use
// O(n/k) symmetric words (beyond the O(k log n) query budget — acceptable
// for an output-enumeration pass, which the paper prices like
// construction).
//
// visit receives each forest edge once as an original-graph edge (u, v).
func (o *Oracle) VisitSpanningForest(m *asym.Meter, sym *asym.SymTracker, visit func(u, v int32)) {
	d := o.D
	np := d.NumCenters()
	// Cluster-internal trees: every non-center vertex contributes the
	// first edge of its path to its center. Covering all vertices costs
	// one ρ-path query each.
	sc := decomp.NewScratch()
	n := d.Graph().N()
	implicitRoots := map[int32]bool{}
	for v := int32(0); int(v) < n; v++ {
		path := d.PathToCenterS(m, sym, sc, v)
		if len(path) >= 2 {
			visit(path[0], path[1])
		}
		if i := d.CenterIndex(m, path[len(path)-1]); i < 0 {
			implicitRoots[path[len(path)-1]] = true
		}
	}
	_ = implicitRoots // implicit components are fully covered by their paths
	// Clusters-graph spanning forest: BFS over the implicit clusters
	// graph, emitting each tree edge's witness original edge.
	seen := make([]bool, np)
	if sym != nil {
		sym.Acquire(np)
		defer sym.Release(np)
	}
	for s := 0; s < np; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		frontier := []int32{int32(s)}
		for len(frontier) > 0 {
			var next []int32
			for _, ci := range frontier {
				center := d.Center(m, int(ci))
				for _, e := range d.NeighborCentersS(m, sym, sc, center) {
					cj := d.CenterIndex(m, e.Other)
					if cj < 0 || seen[cj] {
						continue
					}
					seen[cj] = true
					visit(e.From, e.To)
					next = append(next, int32(cj))
				}
			}
			frontier = next
		}
	}
}
