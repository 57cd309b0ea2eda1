package conn

import (
	"cmp"
	"slices"
	"sync/atomic"

	"repro/internal/asym"
	"repro/internal/spanning"
)

// forestBlockBits is log2 of the number of consecutive vertices one
// forest block holds: 32, the grain of graph's adjacency blocks. A clone
// copies n/32 table words, and a link or cut copies at most two blocks.
const (
	forestBlockBits = 5
	forestBlockSize = 1 << forestBlockBits
	forestBlockMask = forestBlockSize - 1
)

// forestBlock is the forest adjacency of forestBlockSize consecutive
// vertices, laid out like a graph block: vertex lo+i's tree neighbors are
// adj[off[i]:off[i+1]], and offsets past the last vertex of a partial
// block all equal len(adj). One pointer per block keeps the forest cheap
// for the garbage collector to scan. owner is the id of the one Forest
// that may write the block in place; every other version that points at
// it reads it only and copies it before its first write.
type forestBlock struct {
	owner uint64
	off   [forestBlockSize + 1]int32
	adj   []int32
}

// forestIDs hands out Forest ids, the owner tags of forest blocks. Zero is
// never handed out.
var forestIDs atomic.Uint64

// Forest is an explicit spanning forest over the vertices of a dynamic
// connectivity oracle's graph — the structure that makes deletions cheap.
// A deletion of a non-forest edge cannot change connectivity at all; a
// deletion of a forest edge splits one tree into two, and connectivity is
// preserved iff some surviving edge of the graph reconnects the two sides
// (a replacement edge, found by scanning the smaller side). Only when no
// replacement exists has a component genuinely split, which the label-based
// oracle cannot express incrementally — that is the rebuild fallback.
//
// The forest lives on the *update* path only: queries never touch it, so it
// needs no synchronization with concurrent readers. The single background
// rebuilder of the serving layer is its only writer, and every patch works
// on a Clone (copy-on-write snapshot discipline, like the remap table).
//
// The adjacency is stored the way graph.Graph stores its own: in blocks of
// forestBlockSize vertices behind a table of block pointers. Clone copies
// the table only, n/forestBlockSize pointers, and writes nothing in its
// source; the clone's first Link or Cut in a block it does not own copies
// that block, and every block no write touches stays shared with the
// source. A patch therefore costs the Go runtime O(n/forestBlockSize) plus
// the blocks its edges touch, as the cost model charges it O(1) writes per
// link or cut. A forest that has been cloned is a published snapshot: it
// must not be written again, since its own blocks are now shared.
type Forest struct {
	n      int
	id     uint64         // owner tag of the blocks this version may write in place
	blocks []*forestBlock // vertex v lives in blocks[v>>forestBlockBits]; nil until written
	edges  int
}

// NewForest returns an empty forest over n vertices.
func NewForest(n int) *Forest {
	return &Forest{n: n, id: forestIDs.Add(1), blocks: make([]*forestBlock, (n+forestBlockMask)>>forestBlockBits)}
}

// SeedForest selects a spanning forest of the n-vertex multigraph given by
// edges via spanning.Forest (union-find over the explicit edge list) and
// materializes it. Costs: spanning.Forest's reads/writes plus two writes
// per adjacency entry of the chosen edges.
func SeedForest(m *asym.Meter, n int, edges [][2]int32) *Forest {
	f := NewForest(n)
	for _, i := range spanning.Forest(m, n, edges) {
		f.Link(edges[i][0], edges[i][1])
		m.Write(2)
	}
	return f
}

// N returns the vertex count.
func (f *Forest) N() int { return f.n }

// Size returns the number of forest edges.
func (f *Forest) Size() int { return f.edges }

// adj returns v's tree neighbors, read-only.
func (f *Forest) adj(v int32) []int32 {
	b := f.blocks[v>>forestBlockBits]
	if b == nil {
		return nil
	}
	lo, hi := b.off[v&forestBlockMask], b.off[v&forestBlockMask+1]
	return b.adj[lo:hi:hi]
}

// own returns v's block for writing, first replacing it with a copy that
// f owns when f does not own it, and v's slot in the block.
func (f *Forest) own(v int32) (*forestBlock, int32) {
	i := v >> forestBlockBits
	switch b := f.blocks[i]; {
	case b == nil:
		f.blocks[i] = &forestBlock{owner: f.id}
	case b.owner != f.id:
		f.blocks[i] = &forestBlock{owner: f.id, off: b.off, adj: slices.Clone(b.adj)}
	}
	return f.blocks[i], v & forestBlockMask
}

// push appends w to slot i's neighbor list.
func (b *forestBlock) push(i, w int32) {
	b.adj = slices.Insert(b.adj, int(b.off[i+1]), w)
	for j := i + 1; j <= forestBlockSize; j++ {
		b.off[j]++
	}
}

// drop removes w, which must be present, from slot i's neighbor list by
// moving the list's last neighbor into its place.
func (b *forestBlock) drop(i, w int32) {
	lo, last := b.off[i], b.off[i+1]-1
	b.adj[lo+int32(slices.Index(b.adj[lo:last+1], w))] = b.adj[last]
	b.adj = slices.Delete(b.adj, int(last), int(last)+1)
	for j := i + 1; j <= forestBlockSize; j++ {
		b.off[j]--
	}
}

// Has reports whether {u,v} is a forest edge, scanning the shorter of the
// two endpoints' tree-neighbor lists.
func (f *Forest) Has(u, v int32) bool {
	if len(f.adj(v)) < len(f.adj(u)) {
		u, v = v, u
	}
	return slices.Contains(f.adj(u), v)
}

// Link adds the forest edge {u,v}. The caller guarantees u and v are in
// distinct trees (forests never hold cycles) and the edge is not a
// self-loop.
func (f *Forest) Link(u, v int32) {
	if f.Has(u, v) {
		return
	}
	bu, i := f.own(u)
	bu.push(i, v)
	bv, j := f.own(v)
	bv.push(j, u)
	f.edges++
}

// Cut removes the forest edge {u,v}; a no-op when absent.
func (f *Forest) Cut(u, v int32) {
	if !f.Has(u, v) {
		return
	}
	bu, i := f.own(u)
	bu.drop(i, v)
	bv, j := f.own(v)
	bv.drop(j, u)
	f.edges--
}

// Clone returns a copy-on-write copy for a patched oracle: it shares every
// block with f, copies only the block table and writes nothing in f.
func (f *Forest) Clone() *Forest {
	return &Forest{n: f.n, id: forestIDs.Add(1), blocks: slices.Clone(f.blocks), edges: f.edges}
}

// EdgeList returns the forest edges, normalized and sorted — the canonical
// form the durable store persists. It walks the vertices in order and
// emits each vertex's larger tree neighbors sorted.
func (f *Forest) EdgeList() [][2]int32 {
	if f.edges == 0 {
		return nil
	}
	out := make([][2]int32, 0, f.edges)
	for v := range int32(f.n) {
		at := len(out)
		for _, w := range f.adj(v) {
			if w > v {
				out = append(out, [2]int32{v, w})
			}
		}
		slices.SortFunc(out[at:], func(a, b [2]int32) int { return cmp.Compare(a[1], b[1]) })
	}
	return out
}

// smallerSide explores the trees of u and v (the edge {u,v} must already be
// cut) in lockstep and returns the vertex set of the smaller one, in BFS
// order plus as a membership set — so the replacement-edge search pays
// O(min side), the classic bound for decremental forest maintenance. Reads
// are charged per traversed forest adjacency entry.
func (f *Forest) smallerSide(m *asym.Meter, u, v int32) ([]int32, map[int32]bool) {
	type walk struct {
		order []int32
		seen  map[int32]bool
		next  int // frontier cursor into order
	}
	start := func(r int32) *walk {
		return &walk{order: []int32{r}, seen: map[int32]bool{r: true}}
	}
	// step expands one vertex; false once the whole tree is explored.
	step := func(w *walk) bool {
		if w.next >= len(w.order) {
			return false
		}
		x := w.order[w.next]
		w.next++
		for _, y := range f.adj(x) {
			m.Read(1)
			if !w.seen[y] {
				w.seen[y] = true
				w.order = append(w.order, y)
			}
		}
		return true
	}
	a, b := start(u), start(v)
	for {
		if !step(a) {
			return a.order, a.seen
		}
		if !step(b) {
			return b.order, b.seen
		}
	}
}
