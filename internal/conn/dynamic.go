package conn

import (
	"errors"
	"fmt"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// This file is the incremental half of the dynamic-update path.
//
// Edge *insertions* only ever merge components, so a connectivity oracle
// over graph G remains a correct connectivity oracle over G + E⁺ once the
// labels of the merged components are unified. ApplyInsertions performs
// exactly that unification — a union-find over the O(#components) touched
// labels in symmetric memory, persisted as a small remap table — instead of
// the full O(n/k)-write rebuild. This is where the write savings of the
// asymmetric model show up for evolving graphs: an insertion batch of b
// edges costs O(b·k) reads (one label query per endpoint) and O(#merged
// components) asymmetric writes, versus the Θ(n/k + ...) writes of
// reconstruction.
//
// Edge *deletions* have no monotone shortcut — a removal can split a
// component — but most removals do not: deleting a non-forest edge of a
// maintained spanning forest provably preserves connectivity, and deleting
// a forest edge preserves it whenever a surviving replacement edge
// reconnects the two tree halves. ApplyDeletions maintains that forest
// (seeded by EnsureForest, persisted through batches like the remap table)
// and absorbs exactly those deletions for O(batch) metered writes; only a
// genuine component split — no replacement edge across the cut — falls
// back to reconstruction, reported as the typed ErrNeedsRebuild so the
// serving layer's strategy ladder can step down to a rebuild.
//
// Long patch chains are collapsed by re-basing: BuildOracle over the
// current effective graph plus EnsureForest gives a fresh oracle with nil
// remap and chain depth 0, which the serving layer schedules after
// Config.RebaseEvery chained incremental batches.

// ErrNeedsRebuild is returned by ApplyDeletions when a deletion genuinely
// splits a component (no surviving replacement edge reconnects the two
// sides of a cut forest edge) — the one case the label-remap oracle cannot
// absorb incrementally and the caller must reconstruct.
var ErrNeedsRebuild = errors.New("conn: deletion splits a component, rebuild required")

// ApplyInsertions returns a new Oracle that answers connectivity over the
// base oracle's graph plus the inserted edges. The base oracle is not
// modified and keeps answering queries over the old edge set (copy-on-write
// snapshot discipline). Inserted edges must reference vertices of the base
// graph. Costs are charged to m: label queries for both endpoints of every
// edge (reads only) plus one write per word of the persisted remap table.
//
// The canonical label of a merged component is the smallest stored-center
// label among its parts, falling back to the smallest label when no part
// has a stored center — so components NumComponents counts keep
// stored-center labels, labels of untouched components are stable across
// incremental batches, and repeated application composes: the returned
// oracle may itself be extended by further ApplyInsertions calls.
//
// The returned oracle is for Query/Connected only: VisitSpanningForest
// still enumerates the *base* graph's spanning forest and must not be used
// on an oracle carrying insertions.
func (o *Oracle) ApplyInsertions(m *asym.Meter, sym *asym.SymTracker, edges [][2]int32) (*Oracle, error) {
	n := int32(o.D.Graph().N())
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return nil, fmt.Errorf("conn: inserted edge (%d,%d) out of range n=%d", e[0], e[1], n)
		}
	}

	// Union-find over component labels, held entirely in symmetric memory.
	// Labels are sparse vertex ids (stored-center ids or implicit small-
	// component minima), so the forest is a map rather than an array.
	parent := map[int32]int32{}
	var find func(x int32) int32
	find = func(x int32) int32 {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	// storedRoot[r] records whether the merged component rooted at r
	// contains a component that NumComponents counts (one with a stored
	// center). Labels absent from the map default to their own storedness.
	stored := func(lab int32) bool { return o.D.CenterIndex(m, lab) >= 0 }
	storedRoot := map[int32]bool{}
	rootStored := func(r int32) bool {
		if s, ok := storedRoot[r]; ok {
			return s
		}
		return stored(r)
	}

	// The maintained spanning forest (when present) gains every inserted
	// edge that merges two components: the two trees were disjoint, so the
	// merging edge links them without forming a cycle. The clone shares
	// every block with the base's forest until a link touches it.
	var forest *Forest
	if o.forest != nil {
		forest = o.forest.Clone()
	}

	merges := 0 // merges of two counted components
	for _, e := range edges {
		lu := find(o.Query(m, sym, e[0]))
		lv := find(o.Query(m, sym, e[1]))
		m.Op(2)
		if lu == lv {
			continue
		}
		if forest != nil {
			forest.Link(e[0], e[1])
			m.Write(2)
		}
		// The canonical label of the merged component: the smallest label,
		// except that a stored-center label always beats an implicit one —
		// so a component NumComponents counts keeps a stored-center label,
		// and untouched labels stay stable across batches.
		su, sv := rootStored(lu), rootStored(lv)
		switch {
		case su && sv:
			merges++
			if lu > lv {
				lu, lv = lv, lu
			}
		case sv: // only lv stored: it wins
			lu, lv = lv, lu
		case !su && lu > lv: // neither stored: min wins
			lu, lv = lv, lu
		}
		parent[lv] = lu
		storedRoot[lu] = su || sv
		delete(storedRoot, lv)
		if sym != nil {
			sym.Acquire(2)
		}
	}
	if sym != nil {
		defer sym.Release(2 * len(parent))
	}

	// Flatten the union-find plus the base remap into the new oracle's
	// remap table. Old keys re-resolve through the new unions so chains
	// never deepen; every entry is one persisted (key, value) word pair.
	remap := make(map[int32]int32, len(parent)+len(o.remap))
	for k, v := range o.remap {
		remap[k] = find(v)
	}
	for k := range parent {
		if r := find(k); r != k {
			remap[k] = r
		}
	}
	if len(remap) == 0 {
		remap = nil
	}
	m.Write(2 * len(remap))

	return &Oracle{
		D:             o.D,
		labels:        o.labels,
		NumComponents: o.NumComponents - merges,
		remap:         remap,
		forest:        forest,
		chainDepth:    o.chainDepth + 1,
	}, nil
}

// ApplyDeletions returns a new Oracle that answers connectivity over the
// current effective graph minus the removed edges, absorbing the batch
// without reconstruction whenever connectivity is preserved. next must be
// the already-materialized post-batch graph (the serving layer builds the
// new graph version for every strategy anyway); it is consulted for
// surviving edge multiplicities and for the replacement-edge search. The receiver is not
// modified (copy-on-write snapshot discipline).
//
// Per removed edge: a non-forest edge costs O(1) reads (connectivity is
// untouched by construction — the forest still spans); a forest edge whose
// final multiplicity stays positive likewise; a forest edge actually lost
// cuts its tree and searches the smaller side for a replacement among the
// surviving edges — O(min side) reads, O(1) writes to relink. A cut with
// no replacement is a genuine component split, which the remap-based
// labeling cannot express: ErrNeedsRebuild (typed) tells the caller to
// step down to reconstruction; the receiver remains valid and untouched.
//
// Labels, NumComponents and the remap table are unchanged on success —
// exactly because success means no component split.
func (o *Oracle) ApplyDeletions(m *asym.Meter, sym *asym.SymTracker, removed [][2]int32, next *graph.Graph) (*Oracle, error) {
	if o.forest == nil {
		return nil, fmt.Errorf("%w: oracle carries no spanning forest (EnsureForest not called)", ErrNeedsRebuild)
	}
	if next == nil {
		return nil, errors.New("conn: ApplyDeletions needs the materialized post-batch graph")
	}
	n := int32(o.D.Graph().N())
	if int32(next.N()) != n {
		return nil, fmt.Errorf("conn: post-batch graph has n=%d, oracle has n=%d", next.N(), n)
	}
	for _, e := range removed {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return nil, fmt.Errorf("conn: removed edge (%d,%d) out of range n=%d", e[0], e[1], n)
		}
	}

	f := o.forest.Clone() // copy-on-write: cuts and relinks copy only the blocks they touch
	for _, e := range removed {
		key := graph.NormEdge(e)
		u, v := key[0], key[1]
		if u == v {
			m.Op(1) // self-loops are never forest edges
			continue
		}
		m.Read(1) // forest membership probe
		if !f.Has(u, v) {
			continue // non-forest: the forest still spans, connectivity untouched
		}
		m.Read(1)
		if next.EdgeMultiplicity(u, v) > 0 { //wec:unmetered charged by the m.Read(1) above
			// A parallel copy survives the whole batch; the tree edge
			// stands on the surviving copy.
			continue
		}
		f.Cut(u, v)
		m.Write(2)
		side, member := f.smallerSide(m, u, v)
		if sym != nil {
			sym.Acquire(2 * len(side))
		}
		// Replacement search: any surviving edge from the smaller side to a
		// vertex outside it reconnects the cut (deletions never extend a
		// component, so every such neighbor lies on the other side).
		relinked := false
		for _, x := range side {
			for _, y := range next.Adj(int(x)) { //wec:unmetered each slot read is charged by the m.Read(1) in the loop body
				m.Read(1)
				if y != x && !member[y] {
					f.Link(x, y)
					m.Write(2)
					relinked = true
					break
				}
			}
			if relinked {
				break
			}
		}
		if sym != nil {
			sym.Release(2 * len(side))
		}
		if !relinked {
			return nil, fmt.Errorf("%w: no replacement for forest edge (%d,%d)", ErrNeedsRebuild, u, v)
		}
	}

	return &Oracle{
		D:             o.D,
		labels:        o.labels,
		NumComponents: o.NumComponents,
		remap:         o.remap,
		forest:        f,
		chainDepth:    o.chainDepth + 1,
	}, nil
}

// EnsureForest seeds the oracle's explicit spanning forest from
// spanning.Forest over its base graph's edge list, charging m. It must be
// called before the oracle is shared (construction time — the serving
// engine or test that built the oracle), and only on an unpatched oracle: a patched
// oracle's effective graph differs from its base graph, so a base-seeded
// forest would be wrong. No-op when a forest is already present.
//
//wec:mutator construction-time seeding, called before the oracle is shared
func (o *Oracle) EnsureForest(m *asym.Meter) {
	if o.forest != nil {
		return
	}
	if o.chainDepth != 0 {
		panic("conn: EnsureForest on a patched oracle")
	}
	g := o.D.Graph()
	o.forest = SeedForest(m, g.N(), g.Edges()) //wec:unmetered SeedForest charges the edge scan to m itself
}

// AdoptForest returns a copy of o carrying the given explicit spanning
// forest and chain depth — the recovery path: the durable store persists
// the forest and chain depth with each snapshot, and a restarted daemon
// hands them back to the freshly rebuilt oracle so the dynamic-update
// machinery resumes where the fleet left off instead of starting a new
// chain. The edges are validated against the oracle's base graph (present,
// acyclic, spanning); a stale or corrupt forest is rejected so the caller
// can fall back to EnsureForest.
//
//wec:unmetered recovery-path constructor; validation I/O is not part of the query/update cost model
func (o *Oracle) AdoptForest(edges [][2]int32, chainDepth int) (*Oracle, error) {
	if chainDepth < 0 {
		return nil, fmt.Errorf("conn: negative chain depth %d", chainDepth)
	}
	g := o.D.Graph()
	n := int32(g.N())
	ref := unionfind.NewRef(g.N())
	f := NewForest(g.N())
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return nil, fmt.Errorf("conn: forest edge (%d,%d) out of range n=%d", e[0], e[1], n)
		}
		if g.EdgeMultiplicity(e[0], e[1]) == 0 {
			return nil, fmt.Errorf("conn: forest edge (%d,%d) not in graph", e[0], e[1])
		}
		if !ref.Union(e[0], e[1]) {
			return nil, fmt.Errorf("conn: forest edge (%d,%d) closes a cycle", e[0], e[1])
		}
		f.Link(e[0], e[1])
	}
	// Spanning check: an acyclic subgraph of g spans iff it has exactly
	// n - components(g) edges — the size of any spanning forest of g.
	comps := unionfind.NewRef(g.N())
	want := 0
	for _, e := range g.Edges() {
		if e[0] != e[1] && comps.Union(e[0], e[1]) {
			want++
		}
	}
	if f.Size() != want {
		return nil, fmt.Errorf("conn: forest has %d edges, a spanning forest of the graph needs %d", f.Size(), want)
	}
	return &Oracle{
		D:             o.D,
		labels:        o.labels,
		NumComponents: o.NumComponents,
		remap:         o.remap,
		forest:        f,
		chainDepth:    chainDepth,
	}, nil
}
