package bicc

import "repro/internal/asym"

// Block-cut-tree patch predicates for the serving layer's update-strategy
// ladder. The §5.3 oracle's internal structures (sketch tree, span labels,
// cluster local graphs) are all derived from the build-time graph, so the
// only insertions and deletions it can absorb without reconstruction are
// the ones that provably change nothing: edits whose block-cut tree is
// identical before and after, which makes the stale structures exact for
// the new graph. Everything else is refused and handled by the engine's
// lazy rebuild path.
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
// post-removal graph. Only the two trivially safe cases qualify:
//
//   - a self-loop (never on the block-cut tree);
//   - a parallel copy whose pair keeps multiplicity >= 2 after the
//     removal, so the surviving copies still form a 2-cycle and the block
//     structure is untouched.
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
	if u == v {
		return true
	}
	return multiplicityAfter >= 2
}
