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
	// Taking back copies added since the build is absorbed: the pair keeps
	// at least its build-graph count. That covers a second copy of a build
	// edge and the chord (0,3), which the build graph does not hold.
	if !o.DeletionIsNoop(m, e0[0], e0[1], 1) {
		t.Errorf("removal of an added second copy of %v refused", e0)
	}
	if !o.DeletionIsNoop(m, 0, 3, 0) {
		t.Error("removal of the added chord (0,3) refused")
	}
	if m.Writes() != 0 {
		t.Errorf("deletion checks charged %d writes", m.Writes())
	}
	// A self-loop removal never touches the block-cut tree.
	loopG := graph.FromEdges(g.N(), append(append([][2]int32{}, g.Edges()...), [2]int32{2, 2}))
	lo, _, _ := buildOracle(loopG, 4, 7)
	if !lo.DeletionIsNoop(m, 2, 2, 0) {
		t.Error("self-loop removal refused")
	}

	// C4: removing a build edge below its build count and below two
	// copies splits the block into a path with two new cut vertices. It is
	// refused, with no copy or with one copy of a doubled edge left.
	c4 := graph.Cycle(4)
	co, _, _ := buildOracle(c4, 2, 3)
	if co.DeletionIsNoop(m, 0, 1, 0) {
		t.Error("C4: removal of edge (0,1) accepted")
	}
	doubled := graph.FromEdges(4, append(append([][2]int32{}, c4.Edges()...), [2]int32{0, 1}))
	do, _, _ := buildOracle(doubled, 2, 3)
	if do.DeletionIsNoop(m, 0, 1, 1) {
		t.Error("C4 with (0,1) doubled: removal down to one copy accepted")
	}
}
