package bicc

import (
	"repro/internal/asym"
	"repro/internal/graph"
)

// Block-cut-tree patch predicates for the serving layer's update-strategy
// ladder. The §5.3 oracle's internal structures (sketch tree, span labels,
// cluster local graphs) are all derived from the build-time graph, so the
// only insertions and deletions it can absorb without reconstruction are
// the ones that provably change nothing: edits whose block-cut tree is
// identical before and after, which makes the stale structures exact for
// the new graph. Everything else is refused and handled by the engine's
// lazy rebuild path.
//
// Why the absorbed edits keep the build graph's block-cut tree. Let G_b be
// the graph an instance was built on and G the graph after a batch, and
// call the number of copies of a pair {u,v} its multiplicity. The caller
// runs the predicates only for an instance that serves G through absorbed
// batches alone, so by induction over those batches every pair of G
// satisfies one of:
//
//	(a) mult_G >= mult_b, and the copies beyond mult_b were each accepted
//	    by InsertionIsNoop: the pair lies inside one non-bridge block of
//	    G_b;
//	(b) 2 <= mult_G < mult_b: DeletionIsNoop took copies away only while
//	    at least two stayed.
//
// A multigraph's blocks are those of its simple support (the pairs with
// at least one copy, self-loops dropped), except that a support bridge
// with two or more copies is a non-bridge block of its own. In G every
// support pair of G_b is still present (mult_G >= 1 in both cases); every
// new support pair joins two vertices of one block of G_b, which closes a
// cycle inside it and merges nothing; and the one-copy support bridges
// are those of G_b, because a pair drops to one copy only from one (case
// a) and InsertionIsNoop never adds a copy of a bridge (its endpoints are
// not 2-edge connected). So G has G_b's blocks, cut vertices and bridges,
// and every answer the instance gives about G_b holds for G. Deleting a
// copy of G_b's own graph is different: removing one edge of a 4-cycle
// leaves a path with two new cut vertices, so no removal that takes a
// pair below both mult_b and 2 is absorbed.
//
// The predicates are queries in disguise — they charge the caller's meter
// through the ordinary S-method query path, so a patch attempt's cost is
// visible in rebuild telemetry like any other oracle work, and they write
// nothing (queries are read-only in the asymmetric model).

// InsertionIsNoop reports whether inserting edge (u,v) into the oracle's
// graph leaves every bridge/articulation/biconnected/2ecc answer unchanged,
// i.e. whether the edge lands strictly inside one existing block:
//
//   - a self-loop never affects the block-cut tree;
//   - otherwise the endpoints must already be biconnected AND 2-edge
//     connected, so the new edge closes a cycle inside a single block.
//     Biconnected alone is NOT enough: the endpoints of a bridge share a
//     (trivial) biconnected relation in the pair sense only when they lie
//     in a common block, and a parallel copy of a bridge would turn that
//     bridge into a non-bridge — the 2-edge-connectivity conjunct rejects
//     exactly those cases.
//
// An edge that merges blocks (endpoints in different blocks of the cut
// tree, or connecting two components) collapses a path of the block-cut
// tree into one block and changes bridge/articulation answers along it;
// the caller must fall back to a rebuild for those.
//
//wec:noalloc
func (o *Oracle) InsertionIsNoop(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, u, v int32) bool {
	if u == v {
		return true
	}
	return o.BiconnectedS(m, sym, sc, cc, u, v) && o.OneEdgeConnectedS(m, sym, sc, cc, u, v)
}

// DeletionIsNoop reports whether removing one copy of edge (u,v) leaves
// every answer unchanged, given the edge's multiplicity in the
// post-removal graph. Three cases qualify (see the file header for why):
//
//   - a self-loop (never on the block-cut tree);
//   - a parallel copy whose pair keeps multiplicity >= 2 after the
//     removal, so the surviving copies still form a 2-cycle;
//   - a removal that leaves the pair at least as many copies as the
//     instance's build graph has: it only takes back copies that
//     InsertionIsNoop admitted since the build. The build graph's count
//     is read through a graph.View on m.
//
// Anything else is refused: even deleting a cycle edge whose endpoints
// stay 2-edge connected can split a block at an articulation vertex
// (remove one edge of C4 and the remaining path has two new cut
// vertices), so no cheap local test is sound.
//
//wec:noalloc
func (o *Oracle) DeletionIsNoop(m *asym.Meter, u, v int32, multiplicityAfter int) bool {
	// One comparison over already-materialized graph metadata: charge the
	// multiplicity probe the caller performed.
	m.Read(1)
	if u == v || multiplicityAfter >= 2 {
		return true
	}
	return multiplicityAfter >= graph.View{G: o.g, M: m}.EdgeMultiplicity(u, v)
}
