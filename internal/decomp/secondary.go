package decomp

import (
	"slices"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file implements lines 3-12 of Algorithm 1: recursively carving each
// primary cluster into pieces of size at most k by marking secondary
// centers at balanced tree separators (Lemma 3.6), one primary cluster per
// task across the build's workers, plus the Lemma 3.7 parallel variant that
// additionally marks the root's children to bound the recursion depth.

// clusterTree is the rooted tree formed, per Lemma 3.3, by the tie-broken
// shortest paths from cluster members to their center. members is the
// prefix found by a size-limited search, in level order, so members[0] is
// the root; parent[i] is the position in members of members[i]'s SP
// predecessor toward the root (parent[0] = 0). With the paper's stable
// tie-break a predecessor is always an earlier member, so any prefix of
// members is a tree too. The UnstableTieBreak ablation breaks that: a
// predecessor may be a later member, or no member at all (-1), and the
// subtree sweep then drops that link.
//
// A tree lives in its search's scratch (tMembers, tParent, tSize) and is
// valid until the next cluster search on that scratch; the recursion is
// done with a tree before it searches again.
type clusterTree struct {
	members   []int32
	parent    []int32
	size      []int // subtree sizes by position, filled by splitter
	exhausted bool  // the whole cluster was found (fewer than limit members)
}

// clusterSearch finds up to limit members of C(s) in BFS level order,
// linking each member to its shortest-path parent. s lies in the primary
// cluster of root, the primary whose SECONDARYCENTERS recursion runs the
// search. Each membership test is a ρ query (O(k) expected reads), so the
// search costs O(k·limit) expected operations and no writes — the "Search
// from v for the first k vertices that have v as their center" step of
// Algorithm 1. The ρ queries run on worker w's reusable scratch, and the
// seen set borrows that scratch's cluster-listing table (a build never
// lists a cluster mid-search). It maps each seen vertex to its position in
// members, or -1 for a non-member.
//
// A neighbor whose nearest primary is not root cannot be in C(s): every
// vertex of C(s) has ρ0 = root (Lemma 3.3), so the search skips the walk
// along such a neighbor's path toward its ρ0. That walk would read center
// bits of another primary cluster, which that cluster's recursion may be
// setting at the same time, so skipping it is what makes the charges and
// results of concurrent recursions independent of their schedule. The
// UnstableTieBreak ablation breaks Lemma 3.3, so it keeps the walk.
func (d *Decomposition) clusterSearch(m *asym.Meter, sym *asym.SymTracker, w *buildWorker, root, s int32, limit int) clusterTree {
	sc := w.sc
	ct := clusterTree{members: append(sc.tMembers[:0], s), parent: append(sc.tParent[:0], 0), size: sc.tSize}
	seen := &sc.cSeen
	seen.reset()
	seen.put(s, 0)
	if sym != nil {
		words := 3
		sym.Acquire(words)
		defer func() { sym.Release(words) }()
	}
	if limit <= 1 {
		return ct
	}
	// ct.parent holds predecessor vertices until the search ends, since
	// under the ablation a predecessor may join members after its child.
	vw := graph.View{G: d.g, M: m}
	frontier, next := append(sc.cFrontier[:0], s), sc.cNext[:0]
	ct.exhausted = true
search:
	for len(frontier) > 0 {
		next = next[:0]
		for _, x := range frontier {
			deg := vw.Degree(int(x))
			for i := 0; i < deg; i++ {
				u := vw.Neighbor(int(x), i)
				if _, ok := seen.get(u); ok {
					continue
				}
				st := d.primarySearch(m, sym, sc, u, 0)
				if st.hit != root && !d.opt.UnstableTieBreak {
					if w.skipped != nil {
						d.rhoOf(w.skipped, sc, st, u) // SkippedWalkReads only
					}
					seen.put(u, -1) // ρ0(u) is another primary: no walk
					continue
				}
				c, path := d.rhoOf(m, sc, st, u)
				if c != s {
					seen.put(u, -1)
					continue
				}
				// path = u .. s; the SP predecessor of u toward s is
				// path[1], already a member (it lies one BFS level closer).
				seen.put(u, int32(len(ct.members)))
				ct.members = append(ct.members, u)
				ct.parent = append(ct.parent, path[1])
				next = append(next, u)
				if len(ct.members) >= limit {
					ct.exhausted = false
					break search
				}
			}
		}
		frontier, next = next, frontier
	}
	for i := 1; i < len(ct.parent); i++ {
		pos, ok := seen.get(ct.parent[i])
		if !ok {
			pos = -1
		}
		ct.parent[i] = pos
	}
	// Hand grown buffers back so their capacity serves the next search.
	sc.tMembers, sc.tParent, sc.cFrontier, sc.cNext = ct.members, ct.parent, frontier, next
	return ct
}

// subtreeSizes computes the size of each member's subtree into ct.size, by
// position in members. members is in level (BFS) order, so a reverse sweep
// accumulates child sizes before parents.
func (ct *clusterTree) subtreeSizes() []int {
	size := ct.size[:0]
	for range ct.members {
		size = append(size, 1)
	}
	for i := len(size) - 1; i >= 1; i-- {
		if p := ct.parent[i]; p >= 0 {
			size[p] += size[i]
		}
	}
	ct.size = size
	return size
}

// truncate keeps the first n members. A link to a dropped member (only
// possible under the UnstableTieBreak ablation) becomes -1.
func (ct *clusterTree) truncate(n int) {
	ct.members, ct.parent = ct.members[:n], ct.parent[:n]
	for i, p := range ct.parent {
		if int(p) >= n {
			ct.parent[i] = -1
		}
	}
}

// splitter picks the non-root member u maximizing min(|subtree(u)|,
// total−|subtree(u)|). On bounded-degree trees both sides are a constant
// fraction of the total (Rosenberg & Heath [41]), which is what drives the
// O(n/k) bound on the number of SECONDARYCENTERS calls.
func (ct *clusterTree) splitter() int32 {
	size := ct.subtreeSizes()
	total := len(ct.members)
	best, bestScore := int32(-1), -1
	for i, v := range ct.members[1:] {
		s := size[i+1]
		score := s
		if total-s < score {
			score = total - s
		}
		if score > bestScore || (score == bestScore && v < best) {
			best, bestScore = v, score
		}
	}
	return best
}

// children returns the root's children in the cluster tree.
func (ct *clusterTree) rootChildren() []int32 {
	var out []int32
	for i, v := range ct.members[1:] {
		if ct.parent[i+1] == 0 {
			out = append(out, v)
		}
	}
	return out
}

// addSecondaryCenters runs SECONDARYCENTERS on every primary center.
// Primary clusters are disjoint (Lemma 3.3), so their recursions run in
// parallel: each worker scans its chunk of vertices for primaries and runs
// the recursion of each one it finds on its own meter, tracker and
// scratch. A recursion sets center bits only inside its primary cluster and
// reads center bits only there (see clusterSearch); the bit words clusters
// share are updated atomically. The pass's depth is the deepest recursion
// plus the fork spine over the chunks, as in the Lemma 3.7 DAG.
//
//wec:mutator construction-time pass of Build, before the decomposition is shared
func (d *Decomposition) addSecondaryCenters(c *parallel.Ctx, vw graph.View, opt Options, ws []*buildWorker) {
	parallel.Pass(c, vw.M, ws, vw.G.N(), func(w *buildWorker, wc *parallel.Ctx, lo, hi int) {
		var deepest int64
		w.M.Read(hi - lo) // one primary-bit read per vertex
		for v := lo; v < hi; v++ {
			if !d.isPrimary.RawGet(v) { //wec:unmetered charged by the w.M.Read(hi - lo) above
				continue
			}
			deepest = max(deepest, d.carve(w, wc, int32(v), opt))
		}
		wc.AddDepth(deepest)
	})
	for _, w := range ws {
		d.SecondaryCount += w.secondary
	}
}

// carve runs SECONDARYCENTERS on primary p, charged to worker w through
// wc, and returns the recursion's depth.
func (d *Decomposition) carve(w *buildWorker, wc *parallel.Ctx, p int32, opt Options) int64 {
	return wc.Measure(func(pc *parallel.Ctx) {
		d.secondaryCenters(pc, w, p, p, opt, 0)
	})
}

// secondaryCenters is one call of Algorithm 1's recursive procedure, on
// center v of root's primary cluster, charged to c (the worker's meter and
// tracker). The recursion re-runs the cluster search after every mark
// because marking a center changes ρ for the subtree below it — that
// recomputation, rather than stored state, is exactly the read-for-write
// trade the paper makes.
func (d *Decomposition) secondaryCenters(c *parallel.Ctx, w *buildWorker, root, v int32, opt Options, depth int) {
	if depth > d.g.N() {
		panic("decomp: secondaryCenters recursion exceeded n") // cannot happen
	}
	ct := d.clusterSearch(c.Meter(), c.Sym(), w, root, v, d.k+1)
	if ct.exhausted && len(ct.members) <= d.k {
		// Line 8: the whole cluster fits.
		c.AddDepth(int64(len(ct.members)))
		return
	}
	// The search found k+1 members, so the cluster is oversized. Work on
	// the first k (the tree the paper's line 7 defines).
	ct.truncate(d.k)
	u := ct.splitter()
	w.sc.tSize = ct.size
	if u < 0 { // k == 1: every non-root member becomes its own center
		for _, x := range ct.members[1:] {
			d.markSecondary(w, x)
		}
		return
	}
	c.AddDepth(int64(d.k) + int64(c.Meter().Omega())) // one search + the mark write
	if opt.Parallel {
		// Lemma 3.7: besides the splitter, mark the root's children, which
		// lowers the cluster-tree height by at least one per level of
		// recursion (bounded degree keeps the extra centers a constant
		// factor). The children's subtrees become their clusters, so the
		// recursion continues into each child and into the splitter; v's
		// own cluster is now just {v}.
		targets := ct.rootChildren()
		for _, ch := range targets {
			d.markSecondary(w, ch)
		}
		if !slices.Contains(targets, u) {
			d.markSecondary(w, u)
			targets = append(targets, u)
		}
		// The targets recurse in parallel: depth is the max branch plus the
		// constant fan-out spine (bounded degree keeps len(targets) O(1)).
		var maxChild int64
		for _, tgt := range targets {
			dd := c.Measure(func(cc *parallel.Ctx) {
				d.secondaryCenters(cc, w, root, tgt, opt, depth+1)
			})
			if dd > maxChild {
				maxChild = dd
			}
		}
		c.AddDepth(maxChild + int64(len(targets)))
		return
	}
	d.markSecondary(w, u)
	d.secondaryCenters(c, w, root, v, opt, depth+1)
	d.secondaryCenters(c, w, root, u, opt, depth+1)
}

// SkippedWalkReads returns the reads that clusterSearch's walk-skip rule
// saved in building d with options opt, against a build that walks the ρ
// path of every neighbor it probes. It replays d's secondary-center
// recursions on one worker, in primary id order, over a copy of d's
// primaries, and charges each walk the rule skips against the center bits
// marked so far. In that order the recursions of smaller primaries have
// finished and those of larger ones have not started, as in the sequential
// build the rule replaced, so the result is what that build charged for
// the walks. The cost-pin tests of the oracle builds derive their pins
// from it.
func SkippedWalkReads(d *Decomposition, opt Options) int64 {
	n := d.g.N()
	r := &Decomposition{
		g:         d.g,
		k:         d.k,
		isCenter:  asym.NewBitArray(asym.NewMeter(1), n),
		isPrimary: d.isPrimary,
		opt:       d.opt,
	}
	w := &buildWorker{Worker: parallel.NewWorker(1, false), sc: NewScratch(), skipped: asym.NewMeter(1)}
	c := parallel.NewCtx(w.M, nil)
	for v := 0; v < n; v++ {
		if d.isPrimary.RawGet(v) { //wec:unmetered replay outside the modeled build
			r.isCenter.Set(v, true)
		}
	}
	for v := 0; v < n; v++ {
		if d.isPrimary.RawGet(v) { //wec:unmetered replay outside the modeled build
			r.secondaryCenters(c, w, int32(v), int32(v), opt, 0)
		}
	}
	for v := 0; v < n; v++ {
		if r.isCenter.RawGet(v) != d.isCenter.RawGet(v) { //wec:unmetered replay outside the modeled build
			panic("decomp: SkippedWalkReads replay marked other centers than the build")
		}
	}
	return w.skipped.Reads()
}
