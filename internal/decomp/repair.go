package decomp

import (
	"slices"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file repairs an implicit decomposition after edge updates instead of
// rebuilding it, in the spirit of Forster and Goranci ("Dynamic low-stretch
// trees via dynamic low-diameter decompositions", STOC 2019), who maintain a
// low-diameter decomposition under edge updates.
//
// Locality. Primary centers are a hash of (seed, v), so edge updates never
// move them (the unconnected-graph extension aside). ρ0(v) and its path are
// the minimum over all paths from v to a primary of (length, tie-broken
// sequence), so if ρ0(v) or its path differs between two graphs, v's old
// path uses a removed edge or its new path uses an added edge: otherwise
// each path exists in the other graph and both minima agree. Subpaths of
// these paths are the paths of their vertices (Lemma 3.3), so such a v lies
// in the old cluster of a removed edge's endpoints' old ρ0, or in the new
// cluster of an added edge's endpoints' new ρ0. A
// primary's secondary split (Lemma 3.6) depends only on its cluster's
// members, their paths and their adjacency lists, so every primary whose
// cluster is unchanged in all three keeps its secondary centers.

// repairBreakEven sets where repairing stops paying: Repair builds from
// scratch once more than n/repairBreakEven vertices changed their
// adjacency lists. The touched primaries grow with the changed vertices,
// and each costs a few cluster listings (ρ0 searches) where Build pays one
// carve, so past some fraction of n a rebuild is faster. BenchmarkRepairChain
// measures that crossing against BenchmarkBuild: near n/25 on a 3-regular
// graph at k = 8, at one processor and at two.
const repairBreakEven = 32

// Repair returns the implicit decomposition of the graph behind vw that
// Build returns for old's k, seed and options, where old decomposes another
// graph on the same vertices, and shares every array the change leaves
// intact with old. Its work is proportional to the change, apart from one
// read-only scan of both graphs' block tables:
//
//  1. The scan (graph.ChangedVertices) finds the vertices whose adjacency
//     lists differ, reading only the blocks the two graphs do not share.
//  2. The touched primaries are the old and new ρ0 of each such vertex,
//     plus the new ρ0 of every member of the old clusters of the old ρ0s
//     and the old ρ0 of every member of the new clusters of the new ρ0s.
//     By the locality argument above (file comment), one round finds every
//     primary whose cluster changed.
//  3. A copy of the center bits drops the old secondary centers of the
//     touched clusters, and SECONDARYCENTERS runs again on the new graph
//     for the touched primaries only. The center list and rank directory
//     are rebuilt only when a center flipped.
//
// Each step's searches are independent and run in parallel, one chunk per
// worker, as in Build.
//
// Repair only reads old, so old may keep serving queries while it runs.
// It returns old itself when vw.G is old's graph. It falls back to Build
// when more than n/repairBreakEven vertices changed, where a rebuild is
// the faster of the two. It also falls back when the extension's extra
// primaries could differ: old has some, or a changed vertex's capped
// primary search in the new graph exhausts a primary-free component of at
// least k vertices. And it rebuilds when the vertex counts differ, and
// under the UnstableTieBreak ablation, which breaks Lemma 3.3.
//
//wec:mutator build-time constructor; the decomposition is not shared until it returns
func Repair(c *parallel.Ctx, vw graph.View, old *Decomposition) *Decomposition {
	d, _ := repair(c, vw, old, vw.G.N()/repairBreakEven)
	return d
}

// repair is Repair falling back to Build past maxChanged changed vertices,
// also returning how many primaries it redid (-1 when it fell back).
//
//wec:mutator build-time constructor; the decomposition is not shared until it returns
func repair(c *parallel.Ctx, vw graph.View, old *Decomposition, maxChanged int) (*Decomposition, int) {
	if vw.G == old.g {
		return old, 0
	}
	n, m := vw.G.N(), vw.M
	rebuild := func() (*Decomposition, int) {
		return Build(c, vw, old.k, old.seed, old.opt), -1
	}
	if n != old.g.N() || old.ExtraPrimaries > 0 || old.opt.UnstableTieBreak {
		return rebuild()
	}
	d := &Decomposition{
		g:              vw.G,
		k:              old.k,
		seed:           old.seed,
		opt:            old.opt,
		isCenter:       old.isCenter,
		isPrimary:      old.isPrimary,
		centers:        old.centers,
		rank:           old.rank,
		PrimaryCount:   old.PrimaryCount,
		SecondaryCount: old.SecondaryCount,
	}
	changed := graph.ChangedVertices(m, old.g, vw.G)
	if len(changed) == 0 {
		return d, 0
	}
	if len(changed) > maxChanged {
		return rebuild()
	}
	ws := d.newBuildWorkers(m.Omega(), c.Sym() != nil)

	// Round one: the old and new ρ0 of every changed vertex. The new-side
	// search is the extension's capped search, which also tells whether
	// the vertex lies in a primary-free component the extension would mark.
	cap := extensionCap(d.opt, d.k, n)
	parallel.Pass(c, m, ws, len(changed), func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		for _, v := range changed[lo:hi] {
			if p := old.rho0(w.M, w.Sym, w.sc, v); p >= 0 {
				w.oldHits = append(w.oldHits, p)
			}
			st := d.primarySearch(w.M, w.Sym, w.sc, v, cap)
			switch {
			case st.stopped:
				w.newHits = append(w.newHits, st.hit)
			case len(st.order) >= cap:
				if p := d.rho0(w.M, w.Sym, w.sc, v); p >= 0 {
					w.newHits = append(w.newHits, p)
				}
			case len(st.order) >= d.k:
				w.exhausted = true
			}
		}
	})
	c.AddDepth(int64(d.k)) // per-search depth O(k)
	var oldFirst, newFirst []int32
	for _, w := range ws {
		if w.exhausted {
			return rebuild()
		}
		oldFirst = append(oldFirst, w.oldHits...)
		newFirst = append(newFirst, w.newHits...)
	}
	oldFirst, newFirst = sortedSet(oldFirst), sortedSet(newFirst)

	// Round two: the new ρ0 of every member of the old clusters of the old
	// ρ0s, and the old ρ0 of every member of the new clusters of the new
	// ρ0s. A vertex whose old path runs through a removed edge is in the old
	// cluster of that edge's endpoints' old ρ0 (Lemma 3.3), and one whose
	// new path runs through an added edge in the new cluster of their new
	// ρ0. The old clusters' non-primary members are kept: their center bits
	// are the old secondary centers to drop.
	parallel.Pass(c, m, ws, len(oldFirst)+len(newFirst), func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		for i := lo; i < hi; i++ {
			other := d
			if i < len(oldFirst) {
				w.list = old.primaryCluster(w.M, w.Sym, w.sc, oldFirst[i], w.list[:0])
				w.members = append(w.members, w.list[1:]...)
			} else {
				other = old
				w.list = d.primaryCluster(w.M, w.Sym, w.sc, newFirst[i-len(oldFirst)], w.list[:0])
			}
			for _, u := range w.list {
				if q := other.rho0(w.M, w.Sym, w.sc, u); q >= 0 {
					w.found = append(w.found, q)
				}
			}
		}
	})
	c.AddDepth(int64(d.k)) // per-listing depth O(k)
	touched := append(slices.Clone(oldFirst), newFirst...)
	for _, w := range ws {
		touched = append(touched, w.found...)
	}
	touched = sortedSet(touched)
	if len(touched) == 0 {
		return d, 0 // every change is inside primary-free components
	}
	// The old clusters of the touched primaries round two did not list.
	var rest []int32
	for _, p := range touched {
		if _, found := slices.BinarySearch(oldFirst, p); !found {
			rest = append(rest, p)
		}
	}
	parallel.Pass(c, m, ws, len(rest), func(w *buildWorker, _ *parallel.Ctx, lo, hi int) {
		for _, p := range rest[lo:hi] {
			w.list = old.primaryCluster(w.M, w.Sym, w.sc, p, w.list[:0])
			w.members = append(w.members, w.list[1:]...)
		}
	})
	c.AddDepth(int64(d.k))

	d.isCenter = old.isCenter.Clone(m)
	cleared := 0
	for _, w := range ws {
		for _, u := range w.members {
			if d.isCenter.Get(int(u)) {
				d.isCenter.Set(int(u), false)
				cleared++
			}
		}
	}
	// The touched recursions run in parallel, as in Build: each reads and
	// sets center bits only inside its own new primary cluster.
	parallel.Pass(c, m, ws, len(touched), func(w *buildWorker, wc *parallel.Ctx, lo, hi int) {
		var deepest int64
		for _, p := range touched[lo:hi] {
			deepest = max(deepest, d.carve(w, wc, p, d.opt))
		}
		wc.AddDepth(deepest)
	})
	d.SecondaryCount -= cleared
	for _, w := range ws {
		d.SecondaryCount += w.secondary
	}
	if d.isCenter.Diff(m, old.isCenter) == 0 {
		d.isCenter = old.isCenter // no center flipped: keep the numbering
		return d, len(touched)
	}
	d.materializeCenters(m)
	return d, len(touched)
}

// sortedSet sorts ids and drops repeats.
func sortedSet(ids []int32) []int32 {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// rho0 returns ρ0(v), or -1 when v's component has no primary.
func (d *Decomposition) rho0(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, v int32) int32 {
	if st := d.primarySearch(m, sym, sc, v, 0); st.stopped {
		return st.hit
	}
	return -1
}

// primaryCluster appends the primary cluster of p, every vertex whose ρ0
// is p, to out in search order, p first. The search from p expands members
// only; it finds them all because each member's path to p stays inside the
// cluster (Lemma 3.3). Every vertex it reaches costs one ρ0 search, and its
// visited set borrows sc's cluster-listing table.
func (d *Decomposition) primaryCluster(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, p int32, out []int32) []int32 {
	seen := &sc.cSeen
	seen.reset()
	seen.put(p, 0)
	start := len(out)
	out = append(out, p)
	vw := graph.View{G: d.g, M: m}
	for i := start; i < len(out); i++ {
		x := int(out[i])
		deg := vw.Degree(x)
		for j := 0; j < deg; j++ {
			u := vw.Neighbor(x, j)
			if _, ok := seen.get(u); ok {
				continue
			}
			seen.put(u, 0)
			if d.rho0(m, sym, sc, u) == p {
				out = append(out, u)
			}
		}
	}
	return out
}
