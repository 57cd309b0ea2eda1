package bicc

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
)

// TestPatchPredicates pins the block-cut-tree no-op predicates the serving
// layer's bicc ladder absorbs update batches with: an edit that provably
// leaves every answer unchanged is accepted, and anything that could move
// the block-cut tree is refused (the serving layer then defers the rebuild
// to the first query).
func TestPatchPredicates(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(8), 2) // two 8-cycles: one block each
	o, _, _ := buildOracle(g, 4, 7)
	m := asym.NewMeter(16)
	sym := asym.NewSymTracker(0)
	sc, cc := NewScratch(), NewClusterCache(0)

	// A chord inside one cycle and a self-loop land inside one block.
	for _, e := range [][2]int32{{0, 3}, {5, 5}} {
		if !o.InsertionIsNoop(m, sym, sc, cc, e[0], e[1]) {
			t.Errorf("insertion %v inside a block refused", e)
		}
	}
	// An edge between the two cycles merges blocks.
	if o.InsertionIsNoop(m, sym, sc, cc, 0, 8) {
		t.Error("insertion (0,8) between two blocks accepted")
	}
	if m.Writes() != 0 {
		t.Errorf("insertion checks charged %d writes", m.Writes())
	}

	// Removing a single-copy cycle edge leaves multiplicity 0: it can split
	// the block, so it is refused. Removing one copy of a tripled edge
	// leaves a 2-cycle behind and is absorbed.
	e0 := g.Edges()[0]
	if o.DeletionIsNoop(m, e0[0], e0[1], 0) {
		t.Errorf("removal of single-copy cycle edge %v accepted", e0)
	}
	if !o.DeletionIsNoop(m, e0[0], e0[1], 2) {
		t.Errorf("removal of one of three copies of %v refused", e0)
	}
	// A self-loop removal never touches the block-cut tree.
	loopG := graph.FromEdges(g.N(), append(append([][2]int32{}, g.Edges()...), [2]int32{2, 2}))
	lo, _, _ := buildOracle(loopG, 4, 7)
	if !lo.DeletionIsNoop(m, 2, 2, 0) {
		t.Error("self-loop removal refused")
	}
}
