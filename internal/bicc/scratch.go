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
// query path: the decomposition-search scratch plus the local-graph build
// buffers of buildLocal. A serving worker allocates one Scratch and
// threads it through every query it answers; nil everywhere means
// "allocate per call", the paper-pristine original behavior kept by the
// reference/equivalence tests.
//
// A Scratch is not safe for concurrent use; it is worker-local by design.
// It depends only on the oracle's type, never on a particular snapshot, so
// a pooled worker's Scratch stays valid across snapshot swaps. Reuse does
// not change charged costs: meters see exactly the reads/ops a
// scratch-less query charges.
type Scratch struct {
	dsc     *decomp.Scratch
	members []int32
	tns     []treeNbr
	edges   [][2]int32
	labels  []int32
	witness map[[2]int32]bool
}

// NewScratch returns an empty reusable biconnectivity query workspace.
func NewScratch() *Scratch {
	return &Scratch{
		dsc:     decomp.NewScratch(),
		witness: make(map[[2]int32]bool, 16),
	}
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
