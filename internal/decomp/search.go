package decomp

import (
	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file implements the query side of the implicit decomposition: the
// deterministic tie-broken BFS, ρ0/ρ (Lemma 3.2), C(s) (Lemma 3.5), the
// clusters-graph neighbor listing (Lemma 4.3), and the unconnected-graph
// extension pass. All searches run entirely in symmetric memory — they
// charge asymmetric reads for graph and center-bit probes but perform zero
// asymmetric writes.

// Scratch is a reusable symmetric-memory workspace for the query-side
// searches (ρ, ρ0, cluster listing). The searches visit O(k) expected
// vertices, so a scratch amortizes to a handful of small, long-lived
// buffers: a serving worker allocates one Scratch and threads it through
// every query it answers, making the steady-state query path allocation
// free, and each build (Build, and the bicc and conn oracle builds) threads
// one through every ρ search it runs (Build and the bicc build one per
// worker). A nil *Scratch everywhere means "allocate per call", the
// original behavior — the paper-pristine reference tests keep it.
//
// A Scratch is not safe for concurrent use; it is worker-local by design.
// Reuse does not change charged costs: meters see exactly the reads/ops a
// scratch-less search charges.
type Scratch struct {
	parent   vertexTable
	order    []int32
	frontier []int32
	next     []int32
	path     []int32

	// Cluster/NeighborCenters workspaces (ClusterS, NeighborCentersS).
	// Disjoint from the search fields above, so a cluster listing can call
	// RhoS on the same scratch while its own buffers stay live. Every
	// vertex table is generation-stamped, emptied in O(1) per call however
	// large an earlier call grew it, and allocated on first use:
	// connectivity workers share the Scratch type but never run cluster
	// listings. cOut and cSeen hold the last listing until the next one
	// (see Listing and ListedRho).
	cOut      []int32
	cFrontier []int32
	cNext     []int32
	cSeen     vertexTable // vertex of N[C] -> its ρ, recorded by the listing
	ncOut     []CenterEdge
	ncSeen    vertexTable // neighbor center -> index into ncOut

	// Build's cluster-tree workspace (clusterSearch, splitter), which also
	// borrows cFrontier, cNext and cSeen: a build never lists a cluster
	// mid-search.
	tMembers []int32
	tParent  []int32
	tSize    []int
}

// NewScratch returns an empty reusable search workspace.
func NewScratch() *Scratch {
	return &Scratch{}
}

// reset prepares the scratch for the next search, keeping capacity.
func (sc *Scratch) reset() {
	sc.parent.reset()
	sc.order = sc.order[:0]
	sc.frontier = sc.frontier[:0]
	sc.next = sc.next[:0]
}

// searchState is the result of one search: the tie-broken shortest-path
// tree and the visit order, borrowed from the scratch when one is supplied.
type searchState struct {
	parent  *vertexTable // tie-broken SP tree, parent[src] = src
	order   []int32      // visit order
	stopped bool         // visit returned true
	hit     int32        // the vertex at which visit stopped
}

// search is the deterministic priority BFS of §3. Starting from v, it calls
// visit(u) for each reached vertex in L(SP(v,·)) order. visit returns true
// to stop the whole search at u. parent pointers record the tie-broken
// shortest-path tree. The search stops after visiting cap vertices (cap <= 0
// means unbounded) or when the component is exhausted.
//
// The search charges one op per reached vertex. With a non-nil scratch
// the parent table and traversal slices are reused buffers (the zero-alloc
// serving path) and adjacency lists are iterated directly off the graph
// span, with reads charged in bulk for each expanded vertex's degree and
// exactly the slots scanned. The ops and these reads are charged in one
// meter update each when the search returns, instead of one per vertex or
// neighbor: identical charged totals to the per-slot Neighbor path even
// when visit stops the search mid-scan. With a nil scratch every call
// allocates fresh state, the original behavior.
//
// Symmetric memory: each reached vertex holds two words (its parent entry
// and its slot in the visit order). Nothing is freed before the search
// returns, so the words are summed as the search goes and folded into sym
// at the end (SymTracker.Fold: the high-water of acquiring them all and
// releasing them at once) — one tracker update per search instead of one
// per vertex. The visit callbacks acquire nothing, so a tracker without
// concurrent users sees the same high-water mark as with per-vertex
// acquires.
//
// Order correctness: the frontier is processed in discovery order and each
// vertex's neighbors are scanned in increasing id (= decreasing priority
// rank) order, so discovery order within a level is exactly the
// lexicographic path-priority order the paper's tie-breaking rule defines,
// and each vertex's first discoverer is its unique tie-broken shortest-path
// predecessor.
//
//wec:noalloc
func (d *Decomposition) search(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32, cap int, visit func(u int32) bool) searchState {
	var st searchState
	var frontier, next []int32
	if sc != nil {
		sc.reset()
		st = searchState{parent: &sc.parent, order: sc.order, hit: -1}
		frontier, next = sc.frontier, sc.next
	} else {
		st = searchState{parent: new(vertexTable), hit: -1} //wec:alloc cold path without a scratch; the zero-alloc gate runs warmed
	}
	st.parent.put(v, v)
	frontier = append(frontier, v) //wec:alloc amortized scratch growth; steady state stays within capacity
	st.order = append(st.order, v) //wec:alloc amortized scratch growth; steady state stays within capacity
	// Reads of the zero-alloc path, charged at release.
	spanReads := 0
	release := func() {
		m.Op(len(st.order)) // one per reached vertex
		m.Read(spanReads)
		if sym != nil {
			sym.Fold(int64(2 * len(st.order))) // parent entry + visit-order slot per reached vertex
		}
		if sc != nil {
			// Hand grown buffers back so the capacity survives to the
			// next query on this scratch.
			sc.order, sc.frontier, sc.next = st.order, frontier, next
		}
	}
	if visit(v) {
		st.stopped, st.hit = true, v
		release()
		return st
	}
	if cap > 0 && len(st.order) >= cap {
		release()
		return st
	}
	vw := graph.View{G: d.g, M: m}
	callSeed := uint64(0)
	if d.opt.UnstableTieBreak {
		callSeed = d.callSeq.Add(1)
	}
	for len(frontier) > 0 {
		next = next[:0]
		for _, x := range frontier {
			adj := d.g.Adj(int(x)) //wec:unmetered charged below, on the path that scans x
			deg := len(adj)
			order := d.neighborOrder(callSeed, x, deg)
			var span []int32
			if sc != nil && order == nil {
				// Zero-alloc path: iterate the adjacency span in place. The
				// degree read and the slots actually scanned are counted
				// in spanReads and charged once at release, so charged
				// totals match the per-slot Neighbor path exactly, even
				// when visit stops the search mid-scan.
				span = adj
				spanReads++
			} else {
				m.Read(1) // the degree read
			}
			for i := 0; i < deg; i++ {
				slot := i
				if order != nil {
					slot = order[i]
				}
				var u int32
				if span != nil {
					u = span[slot]
				} else {
					u = vw.Neighbor(int(x), slot)
				}
				if _, seen := st.parent.get(u); seen {
					continue
				}
				st.parent.put(u, x)
				st.order = append(st.order, u) //wec:alloc amortized scratch growth; steady state stays within capacity
				if visit(u) {
					if span != nil {
						spanReads += i + 1 // span slots scanned before the stop
					}
					st.stopped, st.hit = true, u
					release()
					return st
				}
				if cap > 0 && len(st.order) >= cap {
					if span != nil {
						spanReads += i + 1 // span slots scanned before the cap
					}
					release()
					return st
				}
				next = append(next, u) //wec:alloc amortized scratch growth; steady state stays within capacity
			}
			if span != nil {
				spanReads += deg // the full span was scanned
			}
		}
		frontier, next = next, frontier
	}
	release()
	return st
}

// pathFrom reconstructs the tie-broken shortest path v .. target from the
// search's parent pointers, in order starting at v. A non-nil scratch
// lends its reusable path buffer; the returned slice is only valid until
// the scratch's next search in that case.
//
//wec:noalloc
func (st *searchState) pathFrom(sc *Scratch, v, target int32) []int32 {
	var rev []int32
	if sc != nil {
		rev = sc.path[:0]
	}
	rev = append(rev, target) //wec:alloc amortized scratch growth; steady state stays within capacity
	for x := target; x != v; {
		x, _ = st.parent.get(x)
		rev = append(rev, x) //wec:alloc amortized scratch growth; steady state stays within capacity
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	if sc != nil {
		sc.path = rev
	}
	return rev
}

// Rho returns ρ(v): the first center on the tie-broken shortest path from v
// to its nearest primary center ρ0(v) (Lemma 3.2: O(k) expected reads, no
// writes). In a small primary-free component the implicit center — the
// smallest vertex of the component — is returned, per the §3 extension.
func (d *Decomposition) Rho(m *asym.Meter, sym *asym.SymTracker, v int32) int32 {
	return d.RhoS(m, sym, nil, v)
}

// RhoS is Rho with a caller-provided reusable scratch (nil allocates per
// call) — the serving layer's zero-alloc query path. Charged costs are
// identical to Rho's.
//
//wec:noalloc
func (d *Decomposition) RhoS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32) int32 {
	c, _ := d.rhoPath(m, sym, sc, v)
	return c
}

// rhoPath returns ρ(v) together with the prefix of SP(v, ρ0(v)) ending at
// ρ(v), in order starting at v. The path is nil for implicit centers of
// primary-free small components (and borrowed from the scratch when one is
// supplied).
//
//wec:noalloc
func (d *Decomposition) rhoPath(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32) (int32, []int32) {
	return d.rhoOf(m, sc, d.primarySearch(m, sym, sc, v, 0), v)
}

// primarySearch is the search for ρ0(v): it stops at the first primary
// center it reaches, charging one read per center-bit probe. Every
// reached vertex is probed exactly once, so the probes are charged in one
// update after the search. cap bounds the visits as in search.
//
//wec:noalloc
func (d *Decomposition) primarySearch(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32, cap int) searchState {
	st := d.search(m, sym, sc, v, cap, func(u int32) bool {
		return d.isPrimary.RawGet(int(u)) //wec:unmetered charged below, one read per reached vertex
	})
	m.Read(len(st.order))
	return st
}

// rhoOf finishes ρ(v) and its path (as rhoPath returns them) from st, v's
// unbounded primary search.
//
//wec:noalloc
func (d *Decomposition) rhoOf(m *asym.Meter, sc *Scratch, st searchState, v int32) (int32, []int32) {
	if !st.stopped {
		// Component exhausted without a primary: implicit smallest-vertex
		// center (possible only for components smaller than k, since
		// larger ones had a primary marked during construction).
		min := v
		for _, u := range st.order {
			if u < min {
				min = u
			}
		}
		m.Op(len(st.order))
		return min, nil
	}
	// Walk the path from v toward ρ0(v); the first center is ρ(v). One
	// read per center bit probed.
	path := st.pathFrom(sc, v, st.hit)
	for i, u := range path {
		if d.isCenter.RawGet(int(u)) { //wec:unmetered charged by the m.Read(i + 1) below
			m.Read(i + 1)
			return u, path[:i+1]
		}
	}
	m.Read(len(path))
	return st.hit, path // unreachable: ρ0(v) itself is a center
}

// PathToCenter returns the tie-broken shortest path v .. ρ(v) (Lemma 3.3:
// these paths form a rooted tree on every cluster). For the implicit center
// of a primary-free small component the path is recomputed by a restricted
// search. O(k) expected reads, no writes.
func (d *Decomposition) PathToCenter(m *asym.Meter, sym *asym.SymTracker, v int32) []int32 {
	return d.PathToCenterS(m, sym, nil, v)
}

// PathToCenterS is PathToCenter with a caller-provided reusable scratch
// (nil allocates per call). The returned path is borrowed from the scratch
// and only valid until its next search. Charged costs are identical to
// PathToCenter's.
//
//wec:noalloc
func (d *Decomposition) PathToCenterS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32) []int32 {
	c, path := d.rhoPath(m, sym, sc, v)
	if path != nil {
		return path
	}
	// Implicit center: c is the smallest vertex of v's component, so a
	// search from v reaches it; the parent chain gives the deterministic
	// path ([v] itself when v == c).
	st := d.search(m, sym, sc, v, 0, func(u int32) bool { return u == c })
	return st.pathFrom(sc, v, c)
}

// Rho0 returns ρ0(v), the nearest primary center (or the implicit center of
// a primary-free small component).
func (d *Decomposition) Rho0(m *asym.Meter, sym *asym.SymTracker, v int32) int32 {
	st := d.primarySearch(m, sym, nil, v, 0)
	if !st.stopped {
		min := v
		for _, u := range st.order {
			if u < min {
				min = u
			}
		}
		m.Op(len(st.order))
		return min
	}
	return st.hit
}

// Cluster returns C(s) — every vertex whose ρ is s — in deterministic
// search order (Lemma 3.5: O(k²) expected reads, no writes). The result
// lives in symmetric memory. If s is not a center (and not an implicit
// small-component center) the result is empty or meaningless; callers
// iterate over Centers.
//
// Correctness relies on Corollary 3.4: every vertex of C(s) reaches s
// through C(s), so a search from s that only expands vertices with ρ = s
// finds the whole cluster.
func (d *Decomposition) Cluster(m *asym.Meter, sym *asym.SymTracker, s int32) []int32 {
	return d.ClusterS(m, sym, NewScratch(), s)
}

// ClusterS is Cluster with a caller-provided reusable scratch (nil
// allocates one for the call) — the warm biconnectivity query path. The
// returned slice is borrowed from the scratch and only valid until its
// next ClusterS/NeighborCentersS call. One symmetric word is held per seen
// vertex until return.
//
//wec:noalloc
func (d *Decomposition) ClusterS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, s int32) []int32 {
	if sc == nil {
		sc = NewScratch() //wec:alloc cold path without a scratch; the zero-alloc gate runs warmed
	}
	members, held := d.listCluster(m, sym, sc, s)
	if sym != nil {
		sym.Release(held)
	}
	return members
}

// listCluster is the cluster listing behind ClusterS and NeighborCentersS:
// a search from s that expands only vertices with ρ = s. Every vertex it
// reaches — the members of C(s) and their outside neighbors, the closed
// neighborhood N[C] — gets exactly one ρ search, and its ρ is recorded in
// sc.cSeen, one symmetric word per vertex. The listing stays in the
// scratch (cOut, cSeen) until the next one. The words are acquired as the
// vertices are reached and still held at return: the caller releases the
// returned count after its last read of the record.
//
//wec:noalloc
func (d *Decomposition) listCluster(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, s int32) ([]int32, int) {
	out := sc.cOut[:0]
	frontier := append(sc.cFrontier[:0], s) //wec:alloc amortized scratch growth; steady state stays within capacity
	next := sc.cNext[:0]
	seen := &sc.cSeen
	seen.reset()
	seen.put(s, -1) // ρ not yet searched
	acquired := 0
	if sym != nil {
		sym.Acquire(1)
		acquired = 1
	}
	vw := graph.View{G: d.g, M: m}
	for len(frontier) > 0 {
		next = next[:0]
		for _, x := range frontier {
			r := d.RhoS(m, sym, sc, x)
			seen.put(x, r)
			if r != s {
				continue
			}
			out = append(out, x) //wec:alloc amortized scratch growth; steady state stays within capacity
			deg := vw.Degree(int(x))
			for i := 0; i < deg; i++ {
				u := vw.Neighbor(int(x), i)
				if _, ok := seen.get(u); !ok {
					seen.put(u, -1)
					if sym != nil {
						sym.Acquire(1)
						acquired++
					}
					next = append(next, u) //wec:alloc amortized scratch growth; steady state stays within capacity
				}
			}
		}
		frontier, next = next, frontier
	}
	sc.cOut, sc.cFrontier, sc.cNext = out, frontier, next
	return out, acquired
}

// Listing returns the last cluster listing run on sc (by ClusterS or
// NeighborCentersS): the members of the cluster in search order, borrowed
// from the scratch like ClusterS's result, and the number of vertices of
// N[C] whose ρ it recorded (see ListedRho).
func (sc *Scratch) Listing() (members []int32, listed int) {
	return sc.cOut, sc.cSeen.n
}

// ListedRho returns ρ(u) as recorded by the last cluster listing on sc, or
// -1 if that listing did not reach u. The listing records every vertex of
// N[C], so a member's neighbor u is inside the cluster exactly when its
// ρ is the center. The record lives in symmetric memory, one word per
// listed vertex: reading it charges the meter nothing, and a caller that
// reads it after the listing call has returned holds those words (the
// listed count of Listing) on its tracker while it does.
//
//wec:noalloc
func (sc *Scratch) ListedRho(u int32) int32 {
	if r, ok := sc.cSeen.get(u); ok {
		return r
	}
	return -1
}

// NeighborCenters lists the centers adjacent to s in the clusters graph
// (Lemma 4.3: O(k²) expected reads, no writes), deduplicated, along with
// one witness edge {inVertex, outVertex} per neighbor center for spanning
// forest reconstruction.
type CenterEdge struct {
	Other        int32 // the neighboring center
	From, To     int32 // witness original-graph edge: From in C(s), To in C(Other)
	Multiplicity int   // number of original edges between the two clusters
}

// NeighborCenters returns the clusters-graph neighbors of center s.
func (d *Decomposition) NeighborCenters(m *asym.Meter, sym *asym.SymTracker, s int32) []CenterEdge {
	return d.NeighborCentersS(m, sym, NewScratch(), s)
}

// NeighborCentersS is NeighborCenters with a caller-provided reusable
// scratch (nil allocates one for the call). It runs the cluster listing
// itself and reads each boundary neighbor's ρ from the listing's record,
// so the whole call is one listing plus one scan of the members'
// adjacency. The returned slice and the listing (Listing, ListedRho) are
// borrowed from the scratch and only valid until its next use. The
// listing's symmetric words stay held until return.
//
//wec:noalloc
func (d *Decomposition) NeighborCentersS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, s int32) []CenterEdge {
	if sc == nil {
		sc = NewScratch() //wec:alloc cold path without a scratch; the zero-alloc gate runs warmed
	}
	members, held := d.listCluster(m, sym, sc, s)
	if sym != nil {
		defer sym.Release(held)
	}
	out := sc.ncOut[:0]
	seen := &sc.ncSeen // neighbor center -> index into out
	seen.reset()
	vw := graph.View{G: d.g, M: m}
	for _, v := range members {
		deg := vw.Degree(int(v))
		for i := 0; i < deg; i++ {
			u := vw.Neighbor(int(v), i)
			t := sc.ListedRho(u) // u neighbors a member, so the listing recorded it
			if t == s {
				continue
			}
			if j, ok := seen.get(t); ok {
				out[j].Multiplicity++
				continue
			}
			seen.put(t, int32(len(out)))
			out = append(out, CenterEdge{Other: t, From: v, To: u, Multiplicity: 1}) //wec:alloc amortized scratch growth; steady state stays within capacity
		}
	}
	sc.ncOut = out
	return out
}

// extendUnconnected implements the §3 extension: every vertex runs its
// primary search; a search that exhausts a component of size >= k without
// finding a primary marks the component's smallest vertex (only the
// smallest vertex performs the mark, so each component is marked once).
// Searches are capped at O(k log n) visits — the whp bound of Lemma 3.2 —
// so the pass costs O(nk) expected operations and O(n/k) writes.
//
// The searches run in parallel, one chunk of vertices per worker, against
// the sampled primaries only; the marks are applied after the pass. The
// pass charges what visiting the vertices in id order and marking as it
// goes would: there a component's smallest vertex is marked before any
// other vertex of it searches, and their searches stop at the mark. So a
// worker refunds the search of every other vertex of a component that gets
// marked, and that vertex searches again once the marks are in. Such a
// search visits a whole component of fewer than O(k log n) vertices, so
// the redone searches are few and run sequentially.
func (d *Decomposition) extendUnconnected(c *parallel.Ctx, vw graph.View, opt Options, ws []*buildWorker) {
	n := vw.G.N()
	cap := extensionCap(opt, d.k, n)
	parallel.Pass(c, vw.M, ws, n, func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		for v := int32(lo); v < int32(hi); v++ {
			charged := w.M.Snapshot()
			st := d.primarySearch(w.M, w.Sym, w.sc, v, cap)
			if st.stopped {
				continue // has a primary
			}
			if len(st.order) >= cap {
				continue // cap hit: whp the component has a primary further out
			}
			// Component exhausted without a primary.
			if len(st.order) < d.k {
				continue // small component: implicit center, never written
			}
			min := v
			for _, u := range st.order {
				if u < min {
					min = u
				}
			}
			if min == v {
				w.marks = append(w.marks, v)
				continue
			}
			w.M.Merge(charged.Sub(w.M.Snapshot())) // refund: redone after the marks
			w.redo = append(w.redo, v)
		}
	})
	for _, w := range ws {
		for _, v := range w.marks {
			d.markPrimary(v)
		}
	}
	for _, w := range ws {
		for _, v := range w.redo {
			d.primarySearch(vw.M, c.Sym(), ws[0].sc, v, cap)
		}
	}
	c.AddDepth(int64(d.k)) // parallel over vertices; per-search depth O(k)
}

// extensionCap is the visit cap of the extension's primary searches:
// Options.MaxSearch, or 4·k·⌈log2 n⌉ when that is zero.
func extensionCap(opt Options, k, n int) int {
	if opt.MaxSearch > 0 {
		return opt.MaxSearch
	}
	return 4 * k * max(1, log2ceil(max(2, n)))
}

// neighborOrder returns nil for the deterministic (id-sorted) order, or a
// per-call pseudo-random permutation of the adjacency slots when the
// UnstableTieBreak ablation is active.
func (d *Decomposition) neighborOrder(callSeed uint64, x int32, deg int) []int {
	if !d.opt.UnstableTieBreak || deg < 2 {
		return nil
	}
	order := make([]int, deg)
	for i := range order {
		order[i] = i
	}
	for i := deg - 1; i > 0; i-- {
		j := int(graph.Hash64(callSeed, uint64(x)<<20|uint64(i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}
