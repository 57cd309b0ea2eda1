package decomp

import (
	"slices"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file implements lines 3-12 of Algorithm 1: recursively carving each
// primary cluster into pieces of size at most k by marking secondary
// centers at balanced tree separators (Lemma 3.6), plus the Lemma 3.7
// parallel variant that additionally marks the root's children to bound the
// recursion depth.

// clusterTree is the rooted tree formed, per Lemma 3.3, by the tie-broken
// shortest paths from cluster members to their center. members is the
// prefix found by a size-limited search, in level order, so members[0] is
// the root; parent[i] is the position in members of members[i]'s SP
// predecessor toward the root (parent[0] = 0). With the paper's stable
// tie-break a predecessor is always an earlier member, so any prefix of
// members is a tree too. The UnstableTieBreak ablation breaks that: a
// predecessor may be a later member, or no member at all (-1), and the
// subtree sweep then drops that link.
type clusterTree struct {
	members   []int32
	parent    []int32
	exhausted bool // the whole cluster was found (fewer than limit members)
}

// clusterSearch finds up to limit members of C(s) in BFS level order,
// linking each member to its shortest-path parent. Each membership test is
// a ρ query (O(k) expected reads), so the search costs O(k·limit) expected
// operations and no writes — the "Search from v for the first k vertices
// that have v as their center" step of Algorithm 1. The ρ queries run on
// the build's reusable scratch sc, and the seen set borrows sc's
// cluster-listing table (a build never lists a cluster mid-search). It maps
// each seen vertex to its position in members, or -1 for a non-member.
func (d *Decomposition) clusterSearch(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, s int32, limit int) clusterTree {
	ct := clusterTree{members: make([]int32, 1, limit), parent: make([]int32, 1, limit)}
	ct.members[0] = s
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
	frontier := []int32{s}
	ct.exhausted = true
search:
	for len(frontier) > 0 {
		var next []int32
		for _, x := range frontier {
			deg := vw.Degree(int(x))
			for i := 0; i < deg; i++ {
				u := vw.Neighbor(int(x), i)
				if _, ok := seen.get(u); ok {
					continue
				}
				c, path := d.rhoPath(m, sym, sc, u)
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
		frontier = next
	}
	for i := 1; i < len(ct.parent); i++ {
		pos, ok := seen.get(ct.parent[i])
		if !ok {
			pos = -1
		}
		ct.parent[i] = pos
	}
	return ct
}

// subtreeSizes computes the size of each member's subtree, by position in
// members. members is in level (BFS) order, so a reverse sweep accumulates
// child sizes before parents.
func (ct *clusterTree) subtreeSizes() []int {
	size := make([]int, len(ct.members))
	for i := range size {
		size[i] = 1
	}
	for i := len(size) - 1; i >= 1; i-- {
		if p := ct.parent[i]; p >= 0 {
			size[p] += size[i]
		}
	}
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

// addSecondaryCenters runs SECONDARYCENTERS on every primary center, all
// on the build's one search scratch sc (the recursion is sequential).
func (d *Decomposition) addSecondaryCenters(c *parallel.Ctx, vw graph.View, opt Options, sc *Scratch) {
	n := vw.G.N()
	for v := 0; v < n; v++ {
		vw.M.Read(1)
		if d.isPrimary.RawGet(v) { //wec:unmetered charged by the vw.M.Read(1) above
			d.secondaryCenters(c, vw, sc, int32(v), opt, 0)
		}
	}
}

// secondaryCenters is one call of Algorithm 1's recursive procedure. The
// recursion re-runs the cluster search after every mark because marking a
// center changes ρ for the subtree below it — that recomputation, rather
// than stored state, is exactly the read-for-write trade the paper makes.
func (d *Decomposition) secondaryCenters(c *parallel.Ctx, vw graph.View, sc *Scratch, v int32, opt Options, depth int) {
	if depth > d.g.N() {
		panic("decomp: secondaryCenters recursion exceeded n") // cannot happen
	}
	ct := d.clusterSearch(vw.M, c.Sym(), sc, v, d.k+1)
	if ct.exhausted && len(ct.members) <= d.k {
		// Line 8: the whole cluster fits.
		c.AddDepth(int64(len(ct.members)))
		return
	}
	// The search found k+1 members, so the cluster is oversized. Work on
	// the first k (the tree the paper's line 7 defines).
	ct.truncate(d.k)
	u := ct.splitter()
	if u < 0 { // k == 1: every non-root member becomes its own center
		for _, w := range ct.members[1:] {
			d.markSecondary(w)
		}
		return
	}
	c.AddDepth(int64(d.k) + int64(vw.M.Omega())) // one search + the mark write
	if opt.Parallel {
		// Lemma 3.7: besides the splitter, mark the root's children, which
		// lowers the cluster-tree height by at least one per level of
		// recursion (bounded degree keeps the extra centers a constant
		// factor). The children's subtrees become their clusters, so the
		// recursion continues into each child and into the splitter; v's
		// own cluster is now just {v}.
		targets := ct.rootChildren()
		for _, ch := range targets {
			d.markSecondary(ch)
		}
		if !slices.Contains(targets, u) {
			d.markSecondary(u)
			targets = append(targets, u)
		}
		// The targets recurse in parallel: depth is the max branch plus the
		// constant fan-out spine (bounded degree keeps len(targets) O(1)).
		var maxChild int64
		for _, tgt := range targets {
			dd := c.Measure(func(cc *parallel.Ctx) {
				d.secondaryCenters(cc, vw, sc, tgt, opt, depth+1)
			})
			if dd > maxChild {
				maxChild = dd
			}
		}
		c.AddDepth(maxChild + int64(len(targets)))
		return
	}
	d.markSecondary(u)
	d.secondaryCenters(c, vw, sc, v, opt, depth+1)
	d.secondaryCenters(c, vw, sc, u, opt, depth+1)
}
