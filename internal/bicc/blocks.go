package bicc

import "slices"

// blocks is the biconnectivity of a small multigraph in symmetric memory:
// everything the oracle reads from a Definition 4 local graph or a
// materialized small component. solveBlocks computes it with the same
// iterative Hopcroft–Tarjan DFS as Ref (CACM 1973) over the same edge
// numbering, so every id below equals Ref's for the same edge list: edge
// ids are the ranks of the normalized edges in sorted order (g.Edges()
// order), roots are taken in ascending vertex order, and adjacency is
// scanned in edge-id order, which is ascending neighbor order.
//
// A blocks owns all of its slices — it is retained by the ClusterCache —
// while the DFS state lives in a reusable blockScratch.
type blocks struct {
	// CSR adjacency: adj[off[v]:off[v+1]] are v's neighbors in ascending
	// order (a self-loop fills two slots), eid the edge id of each slot.
	off, adj, eid []int32
	block         []int32 // block id per edge; -1 for self-loops
	bridge        []bool  // per edge: its block is that edge alone
	cut           []bool  // per vertex: an articulation point
	twoEdge       []int32 // per vertex: 2-edge-connected component, labeled by its smallest vertex
	// vb[vbOff[v]:vbOff[v+1]] are the blocks containing v, in order of
	// first appearance along v's edges (Ref.VertexBCCs, element for
	// element).
	vbOff, vb []int32
	numBCC    int // blocks with at least one edge
}

// blockScratch is the reusable DFS state of solveBlocks. Its buffers grow
// to the largest graph solved so far and are never shrunk, so a warm
// scratch solves without allocating anything but the returned blocks.
type blockScratch struct {
	keys                  []uint64 // normalized edges as edgeKey(lo, hi), sorted
	pos                   []int32  // CSR fill cursor per vertex
	disc, low, parentEdge []int32
	next                  []int32 // per vertex: the next adjacency slot its DFS frame scans
	frames                []int32 // DFS vertex stack
	estack                []int32 // edge stack of the open blocks
	size                  []int32 // edges per block
	uf                    []int32 // union-find over non-bridge edges
	label                 []int32 // union-find root -> smallest vertex
	stamp                 []int32 // block -> 1 + the last vertex that listed it
	vb                    []int32
}

// grow returns s resliced to length n, reallocating only past its
// capacity; the contents are unspecified.
func grow(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// solveBlocks computes the blocks of the n-vertex multigraph with the given
// edges (any order, either orientation, parallel edges and self-loops
// allowed). sc may be nil, which allocates the DFS state for the call.
func solveBlocks(sc *blockScratch, n int, edges [][2]int32) blocks {
	if sc == nil {
		sc = &blockScratch{}
	}
	keys := sc.keys[:0]
	for _, e := range edges {
		keys = append(keys, edgeKey(min(e[0], e[1]), max(e[0], e[1])))
	}
	slices.Sort(keys)
	sc.keys = keys
	m := len(keys)

	// One slab for the owned int32 fields whose sizes are known now, one
	// for the bools; vb is sized after the DFS.
	ints := make([]int32, (n+1)+2*m+2*m+m+n+(n+1))
	take := func(k int) []int32 {
		s := ints[:k:k]
		ints = ints[k:]
		return s
	}
	bools := make([]bool, n+m)
	b := blocks{
		off: take(n + 1), adj: take(2 * m), eid: take(2 * m), block: take(m),
		twoEdge: take(n), vbOff: take(n + 1),
		cut: bools[:n:n], bridge: bools[n:],
	}

	// Sorted CSR: filling slots in edge-id order leaves every list in
	// ascending neighbor order, parallel copies in id order.
	for _, k := range keys {
		b.off[k>>32+1]++
		b.off[uint32(k)+1]++
	}
	for v := 0; v < n; v++ {
		b.off[v+1] += b.off[v]
	}
	pos := grow(sc.pos, n)
	copy(pos, b.off[:n])
	for i, k := range keys {
		lo, hi := int32(k>>32), int32(uint32(k))
		b.adj[pos[lo]], b.eid[pos[lo]] = hi, int32(i)
		pos[lo]++
		b.adj[pos[hi]], b.eid[pos[hi]] = lo, int32(i)
		pos[hi]++
	}
	sc.pos = pos

	// Ref's DFS, step for step: a tree edge or back edge is pushed on the
	// edge stack, and a child whose low point does not climb above its
	// parent closes the block on top of it.
	disc, low := grow(sc.disc, n), grow(sc.low, n)
	parentEdge, next := grow(sc.parentEdge, n), grow(sc.next, n)
	for v := range disc {
		disc[v], parentEdge[v] = -1, -1
	}
	for i := range b.block {
		b.block[i] = -1
	}
	frames, estack := sc.frames[:0], sc.estack[:0]
	timer, bcc := int32(0), int32(0)
	for s := int32(0); int(s) < n; s++ {
		if disc[s] >= 0 {
			continue
		}
		disc[s], low[s], next[s] = timer, timer, b.off[s]
		timer++
		frames = append(frames[:0], s)
		rootChildren := 0
		for len(frames) > 0 {
			v := frames[len(frames)-1]
			if slot := next[v]; slot < b.off[v+1] {
				next[v]++
				to, id := b.adj[slot], b.eid[slot]
				if to == v || id == parentEdge[v] {
					continue // self-loops belong to no block
				}
				if disc[to] < 0 {
					parentEdge[to] = id
					disc[to], low[to], next[to] = timer, timer, b.off[to]
					timer++
					estack = append(estack, id)
					frames = append(frames, to)
					if v == s {
						rootChildren++
					}
				} else if disc[to] < disc[v] {
					estack = append(estack, id)
					low[v] = min(low[v], disc[to])
				}
				continue
			}
			frames = frames[:len(frames)-1]
			if len(frames) == 0 {
				break
			}
			p := frames[len(frames)-1]
			low[p] = min(low[p], low[v])
			if low[v] >= disc[p] {
				if p != s {
					b.cut[p] = true
				}
				for {
					id := estack[len(estack)-1]
					estack = estack[:len(estack)-1]
					b.block[id] = bcc
					if id == parentEdge[v] {
						break
					}
				}
				bcc++
			}
		}
		if rootChildren >= 2 {
			b.cut[s] = true
		}
	}
	sc.disc, sc.low, sc.parentEdge, sc.next = disc, low, parentEdge, next
	sc.frames, sc.estack = frames, estack
	b.numBCC = int(bcc)

	// Bridges are the single-edge blocks; the 2-edge-connected components
	// are the components left after deleting them.
	size := grow(sc.size, int(bcc))
	clear(size)
	for _, bl := range b.block {
		if bl >= 0 {
			size[bl]++
		}
	}
	uf := grow(sc.uf, n)
	for v := range uf {
		uf[v] = int32(v)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for i, k := range keys {
		bl := b.block[i]
		if bl < 0 {
			continue
		}
		if size[bl] == 1 {
			b.bridge[i] = true
			continue
		}
		if ra, rb := find(int32(k>>32)), find(int32(uint32(k))); ra != rb {
			uf[rb] = ra
		}
	}
	label := grow(sc.label, n)
	for v := range label {
		label[v] = -1
	}
	for v := int32(0); int(v) < n; v++ {
		r := find(v)
		if label[r] < 0 {
			label[r] = v // vertices ascend, so the first is the smallest
		}
		b.twoEdge[v] = label[r]
	}
	sc.size, sc.uf, sc.label = size, uf, label

	// Vertex -> blocks, deduplicated with a per-block stamp.
	stamp := grow(sc.stamp, int(bcc))
	clear(stamp)
	vb := sc.vb[:0]
	for v := int32(0); int(v) < n; v++ {
		b.vbOff[v] = int32(len(vb))
		for slot := b.off[v]; slot < b.off[v+1]; slot++ {
			bl := b.block[b.eid[slot]]
			if bl >= 0 && stamp[bl] != v+1 {
				stamp[bl] = v + 1
				vb = append(vb, bl)
			}
		}
	}
	b.vbOff[n] = int32(len(vb))
	b.vb = slices.Clone(vb)
	sc.stamp, sc.vb = stamp, vb
	return b
}

// edgeKey packs the edge (a, b) of non-negative vertex ids into one
// sortable word, a<<32 | b.
func edgeKey(a, b int32) uint64 { return uint64(a)<<32 | uint64(b) }

// neighbors returns v's adjacency, ascending, parallel copies repeated.
func (b *blocks) neighbors(v int32) []int32 { return b.adj[b.off[v]:b.off[v+1]] }

// vertexBlocks returns the blocks containing v.
func (b *blocks) vertexBlocks(v int32) []int32 { return b.vb[b.vbOff[v]:b.vbOff[v+1]] }

// edgeSlots returns the run of u's adjacency slots that hold v.
func (b *blocks) edgeSlots(u, v int32) (lo, hi int) {
	nb := b.neighbors(u)
	i, _ := slices.BinarySearch(nb, v)
	j := i
	for j < len(nb) && nb[j] == v {
		j++
	}
	base := int(b.off[u])
	return base + i, base + j
}

// isBridge reports whether {u,v} is a single edge that is a bridge
// (Ref.IsBridge: false if absent or parallel).
func (b *blocks) isBridge(u, v int32) bool {
	lo, hi := b.edgeSlots(u, v)
	return hi-lo == 1 && b.bridge[b.eid[lo]]
}

// edgeLabel returns the block of edge {u,v}, the lowest-id copy of a
// parallel pair (Ref.EdgeLabel: -1 if absent or a self-loop).
func (b *blocks) edgeLabel(u, v int32) int32 {
	lo, hi := b.edgeSlots(u, v)
	if lo == hi {
		return -1
	}
	return b.block[b.eid[lo]]
}

// sameBCC reports whether u and v (u != v) share a block.
func (b *blocks) sameBCC(u, v int32) bool {
	for _, x := range b.vertexBlocks(u) {
		if slices.Contains(b.vertexBlocks(v), x) {
			return true
		}
	}
	return false
}
