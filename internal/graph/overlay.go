package graph

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/asym"
)

// Overlay is a mutable edge-multiset delta staged on top of an immutable
// base Graph. It is the batch-update half of the dynamic serving path:
// callers stage AddEdges / RemoveEdges batches and then Build a fresh
// immutable *Graph, leaving the base untouched so readers holding it keep
// working (copy-on-write). The vertex set is fixed to the base's — edge
// churn only, which is what the serving layer's update endpoint accepts.
//
// Semantics are multiset semantics, matching the package's tolerance of
// parallel edges: AddEdges appends copies, RemoveEdges removes one copy per
// requested pair and fails if no copy is present (counting copies staged by
// earlier AddEdges calls on the same overlay). Within one overlay the
// operations compose in call order.
//
// Overlay is not safe for concurrent use; the serving layer serializes
// staging under its own lock.
type Overlay struct {
	base *Graph
	// delta[e] is the staged multiplicity change of the normalized edge e
	// (u <= v): positive for net additions, negative for net removals.
	delta          map[[2]int32]int
	added, removed int
}

// NewOverlay returns an empty overlay over base.
func NewOverlay(base *Graph) *Overlay {
	return &Overlay{base: base, delta: map[[2]int32]int{}}
}

// Base returns the graph the overlay builds on.
func (o *Overlay) Base() *Graph { return o.base }

// Added returns the number of edge copies staged for addition.
func (o *Overlay) Added() int { return o.added }

// Removed returns the number of edge copies staged for removal.
func (o *Overlay) Removed() int { return o.removed }

// NormEdge returns the undirected edge in its canonical u <= v order — the
// multiset key used by Overlay and by the serving layer's staged-update
// validation.
func NormEdge(e [2]int32) [2]int32 {
	if e[0] > e[1] {
		return [2]int32{e[1], e[0]}
	}
	return e
}

// AddEdges stages one copy of every listed edge. Self-loops and parallel
// edges are allowed; vertices must lie in [0, base.N()).
func (o *Overlay) AddEdges(edges [][2]int32) error {
	n := int32(o.base.N())
	for _, e := range edges {
		if e[0] < 0 || e[1] < 0 || e[0] >= n || e[1] >= n {
			return fmt.Errorf("graph: add edge (%d,%d) out of range n=%d", e[0], e[1], n)
		}
	}
	for _, e := range edges {
		o.delta[NormEdge(e)]++
		o.added++
	}
	return nil
}

// RemoveEdges stages the removal of one copy of every listed edge. A
// removal fails when the edge has no remaining copy in base plus the
// already-staged delta; on failure the overlay is left unchanged.
func (o *Overlay) RemoveEdges(edges [][2]int32) error {
	// Validate the whole batch against a scratch delta first so a failure
	// mid-batch cannot leave a partial removal staged.
	scratch := map[[2]int32]int{}
	for _, e := range edges {
		key := NormEdge(e)
		if o.base.EdgeMultiplicity(key[0], key[1])+o.delta[key]+scratch[key] <= 0 {
			return fmt.Errorf("graph: remove edge (%d,%d): not present", e[0], e[1])
		}
		scratch[key]--
	}
	for key, d := range scratch {
		o.delta[key] += d
		o.removed -= d
	}
	return nil
}

// adjDelta is one staged change to a vertex's adjacency list: d copies of
// neighbor u added to (d > 0) or removed from (d < 0) v's list.
type adjDelta struct{ v, u, d int32 }

// Build materializes the overlay as a new immutable Graph without touching
// the base (copy-on-write). It copies the base's block table, rebuilds the
// blocks that hold an endpoint of a staged edge and shares every other
// block by pointer. It charges m the table plus the touched blocks: one
// read per table entry and per base word of a touched block (its offsets
// and adjacency), one write per word of the new table and of each new
// block — the cost of writing the next version into asymmetric memory.
func (o *Overlay) Build(m *asym.Meter) *Graph {
	base := o.base
	ds := make([]adjDelta, 0, 2*len(o.delta))
	dm := 0
	for k, d := range o.delta {
		switch {
		case d == 0:
		case k[0] == k[1]:
			ds = append(ds, adjDelta{k[0], k[0], int32(2 * d)})
		default:
			ds = append(ds, adjDelta{k[0], k[1], int32(d)}, adjDelta{k[1], k[0], int32(d)})
		}
		dm += d
	}
	slices.SortFunc(ds, func(a, b adjDelta) int {
		return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.u, b.u))
	})
	g := &Graph{blocks: slices.Clone(base.blocks), n: base.n, m: base.m + dm}
	reads, writes := len(g.blocks), len(g.blocks)
	for len(ds) > 0 {
		b := int(ds[0].v >> blockBits)
		j := 1
		for j < len(ds) && int(ds[j].v>>blockBits) == b {
			j++
		}
		old := base.blocks[b]
		g.blocks[b] = rebuildBlock(old, b<<blockBits, blockLen(g.n, b), ds[:j])
		words := blockLen(g.n, b) + 1
		reads += words + len(old.adj)
		writes += words + len(g.blocks[b].adj)
		ds = ds[j:]
	}
	m.Read(reads)
	m.Write(writes)
	return g
}

// rebuildBlock returns a copy of old, the block of the cnt vertices from
// lo, with the sorted changes ds applied: each changed list is merged with
// its additions and drops its removed copies, so it stays sorted.
func rebuildBlock(old *block, lo, cnt int, ds []adjDelta) *block {
	size := int32(len(old.adj))
	for _, d := range ds {
		size += d.d
	}
	nb := &block{adj: make([]int32, size)}
	at := int32(0)
	for i := 0; i < cnt; i++ {
		nb.off[i] = at
		a := old.adj[old.off[i]:old.off[i+1]]
		for len(ds) > 0 && int(ds[0].v) == lo+i {
			d := ds[0]
			ds = ds[1:]
			k, _ := slices.BinarySearch(a, d.u)
			at += int32(copy(nb.adj[at:], a[:k]))
			a = a[k:]
			if d.d < 0 {
				a = a[-d.d:] // RemoveEdges checked that the copies exist
				continue
			}
			for c := int32(0); c < d.d; c++ {
				nb.adj[at] = d.u
				at++
			}
		}
		at += int32(copy(nb.adj[at:], a))
	}
	for i := cnt; i <= blockSize; i++ {
		nb.off[i] = at
	}
	return nb
}

// BuildPlain materializes the overlay without cost accounting — for I/O and
// recovery paths that live outside the asymmetric cost model (the durable
// store's snapshot materialization).
func (o *Overlay) BuildPlain() *Graph {
	return o.Build(asym.NewMeter(1))
}
