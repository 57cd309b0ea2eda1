// Package graph provides the undirected-graph substrate used by every
// algorithm in this repository: a blocked copy-on-write adjacency structure,
// a cost-metered access view for the Asymmetric RAM model, deterministic
// vertex priorities for the tie-breaking rule of §3, synthetic generators
// for the workloads the paper motivates, and the §6 transform from
// unbounded-degree to bounded-degree graphs.
//
// A Graph stores its adjacency in blocks of blockSize consecutive vertices,
// each with its own offsets and adjacency slice, and a version is a table
// of block pointers. Overlay.Build publishes the next version by copying
// the table and rebuilding only the blocks that hold an endpoint of the
// batch; every other block is shared by pointer with the base, so a
// publish writes the table plus the touched blocks, not the whole graph.
// This is the chunked, purely functional snapshot of Aspen (Dhulipala,
// Blelloch and Shun, PLDI 2019) with the path copying of persistent data
// structures (Driscoll, Sarnak, Sleator and Tarjan, JCSS 1989), cut down
// to one level.
//
// Graphs are simple to construct from edge lists and may contain self-loops
// and parallel edges (the paper permits both); generators in this package
// avoid them unless documented otherwise.
package graph

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/asym"
)

// blockBits is log2 of blockSize, the number of consecutive vertices one
// adjacency block holds. 32 was chosen by paired runs of 32, 64 and 128:
// decomp's BenchmarkRhoS and BenchmarkNeighborCentersS did not tell them
// apart, and BenchmarkOverlayBuild wrote and took least at 32. A publish
// writes n/blockSize table words plus about blockSize words per touched
// block, so past n ≈ 2^18 a larger block (or a two-level table) writes
// less.
const (
	blockBits = 5
	blockSize = 1 << blockBits
	blockMask = blockSize - 1
)

// block is the adjacency of blockSize consecutive vertices: vertex
// lo+i's list is adj[off[i]:off[i+1]]. In the partial last block the
// offsets past its last vertex all equal len(adj). A block is immutable
// once built; versions share it by pointer.
type block struct {
	off [blockSize + 1]int32
	adj []int32
}

// Graph is an immutable undirected graph. Vertex ids are 0..N()-1. Each
// undirected edge {u,v} appears once in u's adjacency list and once in v's
// (a self-loop appears twice in its endpoint's list). Adjacency lists are
// sorted by neighbor id.
//
// The total order on vertices required by the paper's tie-breaking rule
// (§3: "we assume a global ordering of the vertices") is the id order:
// lower id = higher priority.
type Graph struct {
	blocks []*block // vertex v lives in blocks[v>>blockBits]
	n      int      // number of vertices
	m      int      // number of undirected edges
}

// numBlocks returns how many blocks cover n vertices.
func numBlocks(n int) int { return (n + blockMask) >> blockBits }

// blockLen returns how many of block b's slots hold one of n vertices.
func blockLen(n, b int) int { return min(blockSize, n-b<<blockBits) }

// FromEdges builds a graph on n vertices from an undirected edge list.
// Adjacency lists are sorted by neighbor id so iteration order — and hence
// the deterministic BFS of package decomp — is reproducible. The blocks
// are sliced out of one backing adjacency array.
func FromEdges(n int, edges [][2]int32) *Graph {
	pos := make([]int32, n)
	for _, e := range edges {
		if int(e[0]) >= n || int(e[1]) >= n || e[0] < 0 || e[1] < 0 {
			panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", e[0], e[1], n))
		}
		pos[e[0]]++
		pos[e[1]]++
	}
	adj := make([]int32, 2*len(edges))
	store := make([]block, numBlocks(n))
	g := &Graph{blocks: make([]*block, len(store)), n: n, m: len(edges)}
	// Lay the blocks out in vertex order, turning pos from degrees into
	// each vertex's next free slot of adj.
	at := int32(0)
	for b := range store {
		bl, lo, start := &store[b], b<<blockBits, at
		cnt := blockLen(n, b)
		for i := 0; i < cnt; i++ {
			bl.off[i] = at - start
			at, pos[lo+i] = at+pos[lo+i], at
		}
		for i := cnt; i <= blockSize; i++ {
			bl.off[i] = at - start
		}
		bl.adj = adj[start:at:at]
		g.blocks[b] = bl
	}
	for _, e := range edges {
		u, v := e[0], e[1]
		adj[pos[u]] = v
		pos[u]++
		adj[pos[v]] = u
		pos[v]++
	}
	for v := 0; v < n; v++ {
		slices.Sort(g.Adj(v))
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of v (self-loops count twice). Unmetered.
func (g *Graph) Degree(v int) int {
	b, i := g.blocks[v>>blockBits], v&blockMask
	return int(b.off[i+1] - b.off[i])
}

// Adj returns v's adjacency list as a shared slice, capped at its length:
// blocks are shared between graph versions, so an append must copy rather
// than overwrite the next vertex's list. Unmetered; algorithms under cost
// accounting must use View instead.
func (g *Graph) Adj(v int) []int32 {
	b, i := g.blocks[v>>blockBits], v&blockMask
	lo, hi := b.off[i], b.off[i+1]
	return b.adj[lo:hi:hi]
}

// MaxDegree returns the maximum vertex degree.
func (g *Graph) MaxDegree() int {
	md := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > md {
			md = d
		}
	}
	return md
}

// EdgeIndex locates neighbor slot: returns the position j (relative to v's
// list) of the j-th incident edge such that Adj(v)[j] == u, starting the
// search at fromSlot. Used by the §6 transform, which needs each edge's
// position in both endpoint lists.
func (g *Graph) EdgeIndex(v int, u int32, fromSlot int) int {
	a := g.Adj(v)
	for j := fromSlot; j < len(a); j++ {
		if a[j] == u {
			return j
		}
	}
	return -1
}

// EdgeMultiplicity returns how many copies of the undirected edge {u,v} the
// graph contains (0 when absent). Self-loops count each loop once even
// though it occupies two adjacency slots. Unmetered; used by the dynamic
// update path to validate removals. O(log deg(u)) via binary search on the
// sorted adjacency list.
func (g *Graph) EdgeMultiplicity(u, v int32) int {
	if u < 0 || v < 0 || int(u) >= g.N() || int(v) >= g.N() {
		return 0
	}
	a := g.Adj(int(u))
	lo := sort.Search(len(a), func(i int) bool { return a[i] >= v })
	hi := sort.Search(len(a), func(i int) bool { return a[i] > v })
	c := hi - lo
	if u == v {
		c /= 2
	}
	return c
}

// Edges materializes the undirected edge list with u <= v, sorted. The
// result has exactly M() entries: parallel edges appear once per copy and a
// self-loop appears once (its two adjacency slots are one edge). Intended
// for tests and I/O, not for metered algorithms.
func (g *Graph) Edges() [][2]int32 {
	out := make([][2]int32, 0, g.m)
	// Vertices ascend and each list is sorted, so out comes out sorted.
	for v := int32(0); int(v) < g.N(); v++ {
		loopSlot := false
		for _, u := range g.Adj(int(v)) {
			if u == v {
				// A self-loop occupies two slots in v's list; emit on
				// every second one.
				loopSlot = !loopSlot
				if loopSlot {
					continue
				}
			}
			if u >= v {
				out = append(out, [2]int32{v, u})
			}
		}
	}
	return out
}

// ChangedVertices returns, in increasing order, the vertices whose
// adjacency lists differ between a and b, two graphs on the same vertices.
// Blocks the two versions share by pointer are skipped unread: it charges
// m two reads per block-table entry, plus, inside each block that is not
// shared, one read per degree and adjacency slot of both versions.
func ChangedVertices(m *asym.Meter, a, b *Graph) []int32 {
	var out []int32
	reads := 2 * len(a.blocks)
	for i, x := range a.blocks {
		y := b.blocks[i]
		if x == y {
			continue
		}
		lo := i << blockBits
		for j := range blockLen(a.n, i) {
			xs := x.adj[x.off[j]:x.off[j+1]]
			ys := y.adj[y.off[j]:y.off[j+1]]
			reads += 2 + len(xs) + len(ys)
			if !slices.Equal(xs, ys) {
				out = append(out, int32(lo+j))
			}
		}
	}
	m.Read(reads)
	return out
}

// View is a cost-metered window onto a Graph: the graph lives in asymmetric
// memory, so every adjacency access charges reads to the meter. Reading a
// vertex's degree is one read (the offset word); reading each neighbor is
// one read per adjacency word.
type View struct {
	G *Graph
	M *asym.Meter
}

// Degree returns v's degree, charging one read.
func (vw View) Degree(v int) int {
	vw.M.Read(1)
	return vw.G.Degree(v)
}

// Neighbor returns the i-th neighbor of v, charging one read.
func (vw View) Neighbor(v, i int) int32 {
	vw.M.Read(1)
	b := vw.G.blocks[v>>blockBits]
	return b.adj[b.off[v&blockMask]+int32(i)]
}

// EdgeMultiplicity is Graph.EdgeMultiplicity charged to the meter: one
// read for u's degree plus one per adjacency slot that the binary search
// probes or the count of the copies' run reads.
func (vw View) EdgeMultiplicity(u, v int32) int {
	vw.M.Read(1)
	if u < 0 || v < 0 || int(u) >= vw.G.N() || int(v) >= vw.G.N() {
		return 0
	}
	a := vw.G.Adj(int(u))
	lo, reads := 0, 0
	for hi := len(a); lo < hi; reads++ {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c := 0
	for lo+c < len(a) && a[lo+c] == v {
		c++
	}
	vw.M.Read(reads + min(c+1, len(a)-lo))
	if u == v {
		c /= 2
	}
	return c
}

// VisitNeighbors calls f for each neighbor of v in priority (id) order,
// charging one read per neighbor plus one for the degree.
func (vw View) VisitNeighbors(v int, f func(u int32)) {
	d := vw.Degree(v)
	for i := 0; i < d; i++ {
		f(vw.Neighbor(v, i))
	}
}

// Callers that iterate an adjacency span directly via G.Adj (the zero-alloc
// query fast path in internal/decomp) must charge vw.M.Read for exactly
// the slots they scan, so charged totals stay identical to the per-slot
// Neighbor path even on an early exit mid-scan.
