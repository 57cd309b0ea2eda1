package bicc

import "repro/internal/decomp"

// treeNbr describes one cluster-tree edge incident to the cluster whose
// local graph is being built: the parent edge plus one edge per child
// cluster (§5.2).
type treeNbr struct {
	child  int32 // cluster index keying the tree edge
	inV    int32 // endpoint inside this cluster
	outV   int32 // endpoint outside (the Vo node)
	isPar  bool
	labelC int32 // cluster label of the neighbor cluster
}

// Scratch is a reusable symmetric-memory workspace for the biconnectivity
// query path: the decomposition-search scratch (whose cluster listing
// buildLocal reads back), the local-graph build buffers of buildLocal and
// the block solver's DFS state. A serving worker allocates one Scratch and
// threads it through every query it answers, and BuildOracle gives one
// to each of its workers; nil everywhere means "allocate per call", the
// paper-pristine original behavior kept by the reference/equivalence
// tests.
//
// A Scratch is not safe for concurrent use; it is worker-local by design.
// It depends only on the oracle's type, never on a particular snapshot, so
// a pooled worker's Scratch stays valid across snapshot swaps. Reuse does
// not change charged costs: meters see exactly the reads/ops a
// scratch-less query charges.
type Scratch struct {
	dsc         *decomp.Scratch
	tns         []treeNbr
	tree        []uint64 // the tree edges as sorted edgeKey(inV, outV)
	treeSkipped []bool   // tree[i]'s one skipped adjacency copy was seen
	edges       [][2]int32
	bound       [][2]int32 // Category 3 edges (member, Vo vertex), appended last
	labels      []int32
	bs          blockScratch
}

// NewScratch returns an empty reusable biconnectivity query workspace.
func NewScratch() *Scratch {
	return &Scratch{dsc: decomp.NewScratch()}
}

// dscratch returns the embedded decomposition-search scratch, nil-safe so
// call sites can thread an optional *Scratch straight through.
//
//wec:noalloc
func (sc *Scratch) dscratch() *decomp.Scratch {
	if sc == nil {
		return nil
	}
	return sc.dsc
}

// bscratch returns the embedded block-solver state, nil-safe like
// dscratch.
//
//wec:noalloc
func (sc *Scratch) bscratch() *blockScratch {
	if sc == nil {
		return nil
	}
	return &sc.bs
}
