// Package decomp implements the paper's primary contribution: the implicit
// k-decomposition of a bounded-degree graph (§3, Algorithm 1, Theorem 3.1).
//
// A k-decomposition partitions the vertices into connected clusters of size
// at most k around a center set S of size O(n/k). It is *implicit*: the only
// state written to asymmetric memory is the set S plus one bit per center
// (primary vs secondary). The mapping ρ(v) from a vertex to its center is
// recomputed on demand from G and S by a deterministic search using
// symmetric memory only — O(k) expected reads and zero writes — which is
// how the construction breaks the Ω(n)-write barrier.
//
// Definitions implemented here:
//
//	ρ0(v) = the primary center nearest to v under tie-broken shortest paths
//	ρ(v)  = the first center on the path from v toward ρ0(v)
//	C(s)  = {v : ρ(v) = s}, connected by Lemma 3.3/Corollary 3.4
//
// Tie-breaking (§3): paths of equal hop length are compared by the priority
// (= id, lower is higher priority) of the first vertex at which they
// diverge, which makes shortest paths and their subpaths unique.
package decomp

import (
	"fmt"
	"sync/atomic"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Decomposition is an implicit k-decomposition (S, ρ, ℓ) of a bounded-degree
// graph. Asymmetric state is two bit vectors (center membership and the
// 1-bit primary/secondary label), a sorted center list used as the
// clusters-graph vertex numbering, and a rank directory over the membership
// bits (⌈n/64⌉ words) that maps a center to its place in that numbering.
//
//wec:immutable
type Decomposition struct {
	g    *graph.Graph
	k    int
	seed uint64

	isCenter  *asym.BitArray // over vertices
	isPrimary *asym.BitArray // over vertices; meaningful where isCenter
	centers   *asym.Array    // sorted center ids (clusters-graph numbering)
	rank      *asym.Rank     // over isCenter: center id -> clusters-graph id

	unstable bool          // Options.UnstableTieBreak
	callSeq  atomic.Uint64 // per-search sequence for the unstable ablation

	// Construction statistics, for the experiment harness.
	PrimaryCount   int
	SecondaryCount int
	ExtraPrimaries int // primaries added by the unconnected-graph extension
}

// Options configures Build.
type Options struct {
	// Parallel switches on the Lemma 3.7 variant: every call to
	// SecondaryCenters additionally marks the children of the subtree root
	// as secondary centers, which bounds the recursion depth by the tree
	// height at the cost of a constant-factor increase in |S1|.
	Parallel bool
	// MaxSearch caps the per-vertex primary search of the unconnected-graph
	// extension (§3 "Extension to unconnected graphs"). Zero means the
	// default 4·k·⌈log2 n⌉, the whp bound of Lemma 3.2.
	MaxSearch int
	// UnstableTieBreak deliberately breaks the deterministic priority
	// order of the §3 searches: each search visits neighbors in a
	// per-call pseudo-random order. FOR ABLATION ONLY — Lemma 3.3 (and
	// with it ρ consistency and the cluster-size bound) relies on the
	// deterministic order; BenchmarkAblationTieBreak measures how badly
	// the decomposition degrades without it.
	UnstableTieBreak bool
}

// Build constructs an implicit k-decomposition of the graph behind vw,
// charging all construction traffic to vw.M: O(kn) expected operations and
// O(n/k) expected writes (Lemma 3.6). seed drives the primary sampling.
//
// The graph need not be connected (the §3 extension is applied), but its
// degree should be bounded for the stated costs to hold; Build works on any
// graph, with costs degrading gracefully with the maximum degree.
//
//wec:mutator build-time constructor; the decomposition is not shared until it returns
func Build(c *parallel.Ctx, vw graph.View, k int, seed uint64, opt Options) *Decomposition {
	if k < 1 {
		panic(fmt.Sprintf("decomp: k must be >= 1, got %d", k))
	}
	n := vw.G.N()
	m := vw.M
	d := &Decomposition{
		g:         vw.G,
		k:         k,
		seed:      seed,
		isCenter:  asym.NewBitArray(m, n),
		isPrimary: asym.NewBitArray(m, n),
		unstable:  opt.UnstableTieBreak,
	}

	// Line 1 of Algorithm 1: sample each vertex into S0 with probability
	// 1/k. The coin is a hash of the vertex id, so it is reproducible and
	// needs no stored randomness.
	for v := 0; v < n; v++ {
		m.Op(1)
		if graph.Hash64(seed, uint64(v))%uint64(k) == 0 {
			d.isCenter.Set(v, true)
			d.isPrimary.Set(v, true)
			d.PrimaryCount++
		}
	}

	// Both passes below recompute ρ with a search on every use (the
	// decomposition never stores it); they share one search scratch so
	// those searches reuse their buffers instead of allocating per call.
	sc := NewScratch()

	// Unconnected-graph extension: a component of size >= k that drew no
	// primary gets its smallest vertex marked primary. Components smaller
	// than k are served by an implicit (never written) center.
	d.extendUnconnected(c, vw, opt, sc)

	// Lines 3-4: carve every primary cluster into size-<=k pieces by
	// adding secondary centers.
	d.addSecondaryCenters(c, vw, opt, sc)

	// Materialize the sorted center list (the clusters-graph numbering):
	// O(n) reads to scan the bitmap, O(n/k) writes to store the list.
	ids := make([]int32, 0, 2*(n/max(1, k))+4)
	for v := 0; v < n; v++ {
		m.Read(1)
		if d.isCenter.RawGet(v) { //wec:unmetered charged by the m.Read(1) above
			ids = append(ids, int32(v))
		}
	}
	d.centers = asym.NewArray(m, len(ids))
	for i, s := range ids {
		d.centers.Set(i, s)
	}
	// The inverse numbering, for CenterIndex: ⌈n/64⌉ writes.
	d.rank = asym.NewRank(d.isCenter)
	return d
}

// K returns the cluster-size bound.
func (d *Decomposition) K() int { return d.k }

// Graph returns the underlying graph.
func (d *Decomposition) Graph() *graph.Graph { return d.g }

// NumCenters returns |S|.
func (d *Decomposition) NumCenters() int { return d.centers.Len() }

// Center returns the i-th center in sorted order, charging one read.
func (d *Decomposition) Center(m *asym.Meter, i int) int32 {
	m.Read(1)
	return d.centers.Raw()[i] //wec:unmetered charged by the m.Read(1) above
}

// CenterIndex returns the position of center s in the sorted center list
// (its clusters-graph id), or -1 when s is not a stored center. A rank
// directory lookup: one read for a non-center, two for a center.
func (d *Decomposition) CenterIndex(m *asym.Meter, s int32) int {
	if s < 0 || int(s) >= d.isCenter.Len() {
		return -1
	}
	return d.rank.Index(m, int(s))
}

// IsCenter reports whether v is in S, charging one read.
func (d *Decomposition) IsCenter(m *asym.Meter, v int32) bool {
	m.Read(1)
	return d.isCenter.RawGet(int(v)) //wec:unmetered charged by the m.Read(1) above
}

// IsPrimary reports whether v is in S0, charging one read.
func (d *Decomposition) IsPrimary(m *asym.Meter, v int32) bool {
	m.Read(1)
	return d.isPrimary.RawGet(int(v)) //wec:unmetered charged by the m.Read(1) above
}

// markSecondary adds u to S1 (one read for the double-mark probe, one
// write per bit set, as in Lemma 3.6).
//
//wec:mutator construction-time helper of Build, before the decomposition is shared
func (d *Decomposition) markSecondary(u int32) {
	if d.isCenter.Get(int(u)) {
		return
	}
	d.isCenter.Set(int(u), true)
	d.SecondaryCount++
}

// markPrimary adds u to S0 (used by the unconnected extension).
//
//wec:mutator construction-time helper of Build, before the decomposition is shared
func (d *Decomposition) markPrimary(u int32) {
	d.isCenter.Set(int(u), true)
	d.isPrimary.Set(int(u), true)
	d.PrimaryCount++
	d.ExtraPrimaries++
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func log2ceil(n int) int {
	l := 0
	for (1 << l) < n {
		l++
	}
	return l
}
