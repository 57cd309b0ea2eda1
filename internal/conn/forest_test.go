package conn

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// checkSpanningForest verifies the §4.3 forest enumeration: every emitted
// pair is a real edge, the set is acyclic, and it spans every component.
func checkSpanningForest(t *testing.T, g *graph.Graph, k int, seed uint64) {
	t.Helper()
	m, c := env(k * k)
	o := BuildOracle(c, graph.View{G: g, M: m}, k, seed)
	qm := asym.NewMeter(k * k)
	uf := unionfind.NewRef(g.N())
	count := 0
	before := qm.Snapshot()
	o.VisitSpanningForest(qm, nil, func(u, v int32) {
		count++
		// Real edge?
		found := false
		for _, w := range g.Adj(int(u)) {
			if w == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("forest edge (%d,%d) not in graph", u, v)
		}
		if !uf.Union(u, v) {
			t.Fatalf("forest edge (%d,%d) creates a cycle", u, v)
		}
	})
	if d := qm.Snapshot().Sub(before); d.Writes != 0 {
		t.Fatalf("forest enumeration wrote %d words", d.Writes)
	}
	// Count components of g.
	ref := unionfind.NewRef(g.N())
	for _, e := range g.Edges() {
		ref.Union(e[0], e[1])
	}
	comps := map[int32]bool{}
	for v := 0; v < g.N(); v++ {
		comps[ref.Find(int32(v))] = true
	}
	want := g.N() - len(comps)
	if count != want {
		t.Fatalf("forest has %d edges, want %d", count, want)
	}
	// Spanning: the forest connects exactly what g connects.
	for v := 0; v < g.N(); v++ {
		if uf.Find(int32(v)) != uf.Find(ref.Find(int32(v))) {
			t.Fatalf("vertex %d not connected to its component in the forest", v)
		}
	}
}

func TestOracleSpanningForestFamilies(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"3regular":     graph.RandomRegular(300, 3, 7),
		"grid":         graph.Grid2D(12, 12),
		"cycle":        graph.Cycle(50),
		"disconnected": graph.Disconnected(graph.Cycle(9), 4),
		"small-comps":  graph.Disconnected(graph.Path(3), 5),
		"tree":         graph.RandomTree(80, 3),
	} {
		t.Run(name, func(t *testing.T) { checkSpanningForest(t, g, 5, 17) })
	}
}

func TestOracleSpanningForestLargerK(t *testing.T) {
	checkSpanningForest(t, graph.RandomRegular(500, 3, 9), 12, 19)
}

// forestNs are the vertex counts the copy-on-write checks run at: one
// vertex, a partial first block, exactly one block, one vertex into a
// second block, and a partial last block after three full ones.
var forestNs = []int{1, 31, 32, 33, 100}

// forestVersion is one live Forest version with the map-based reference it
// is held to and what it shares with the version it was cloned from.
type forestVersion struct {
	f       *Forest
	ref     map[[2]int32]bool // normalized forest edges
	src     *forestVersion    // the version f was cloned from; nil for the root
	touched map[int32]bool    // blocks a link or cut wrote since the clone
	cloned  bool              // f has been cloned: a published snapshot, never written again
}

// refTree returns the vertices of v's tree in the reference forest.
func refTree(n int, ref map[[2]int32]bool, v int32) map[int32]bool {
	adj := make([][]int32, n)
	for e := range ref {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	seen := map[int32]bool{v: true}
	for stack := []int32{v}; len(stack) > 0; {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				stack = append(stack, y)
			}
		}
	}
	return seen
}

// checkForestVersion holds one version to its reference: Size, Has on
// every vertex pair, EdgeList (normalized and sorted), smallerSide's
// vertex set on the pair (a, b), and pointer equality with its source for
// every block no link or cut has touched since the clone.
func checkForestVersion(t *testing.T, n int, fv *forestVersion, a, b int32) {
	t.Helper()
	f := fv.f
	if f.Size() != len(fv.ref) {
		t.Fatalf("Size %d, reference has %d edges", f.Size(), len(fv.ref))
	}
	for u := range int32(n) {
		for v := range int32(n) {
			if got, want := f.Has(u, v), fv.ref[graph.NormEdge([2]int32{u, v})]; got != want {
				t.Fatalf("Has(%d,%d) = %v, reference %v", u, v, got, want)
			}
		}
	}
	want := make([][2]int32, 0, len(fv.ref))
	for e := range fv.ref {
		want = append(want, e)
	}
	slices.SortFunc(want, func(x, y [2]int32) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	if got := f.EdgeList(); !slices.Equal(got, want) {
		t.Fatalf("EdgeList %v, reference %v", got, want)
	}

	ta, tb := refTree(n, fv.ref, a), refTree(n, fv.ref, b)
	smaller := ta
	if len(tb) < len(ta) {
		smaller = tb
	}
	order, seen := f.smallerSide(asym.NewMeter(16), a, b)
	if len(order) != len(smaller) || len(seen) != len(smaller) {
		t.Fatalf("smallerSide(%d,%d) has %d vertices (%d in its set), reference %d",
			a, b, len(order), len(seen), len(smaller))
	}
	for _, x := range order {
		if !smaller[x] || !seen[x] {
			t.Fatalf("smallerSide(%d,%d) holds %d, which is outside the smaller reference tree", a, b, x)
		}
	}

	if fv.src == nil {
		return
	}
	for i, blk := range f.blocks {
		if !fv.touched[int32(i)] && blk != fv.src.f.blocks[i] {
			t.Fatalf("block %d was not written since the clone but is not the source's", i)
		}
	}
}

// runForestOps applies the operations encoded in ops to a chain of Forest
// versions over n vertices, holding every live version to its reference
// after every step. Each operation takes three bytes: a kind, then two
// operands. Kinds 0 and 1 link two trees of a version that has not been
// cloned (when the operands' vertices share a tree, the second endpoint is
// the smallest vertex outside it), 2 cuts one of that version's edges, 3
// cuts an arbitrary pair (a no-op unless it is an edge) and 4 clones any
// live version, cloned ones included.
func runForestOps(t *testing.T, n int, ops []byte) {
	t.Helper()
	const maxLive = 6
	root := &forestVersion{f: NewForest(n), ref: map[[2]int32]bool{}}
	live := []*forestVersion{root}
	writable := func(x byte) *forestVersion {
		var ws []*forestVersion
		for _, fv := range live {
			if !fv.cloned {
				ws = append(ws, fv)
			}
		}
		if len(ws) == 0 {
			return nil
		}
		return ws[int(x)%len(ws)]
	}
	touch := func(fv *forestVersion, u, v int32) {
		if fv.touched != nil {
			fv.touched[u>>forestBlockBits] = true
			fv.touched[v>>forestBlockBits] = true
		}
	}
	for step := 0; step+2 < len(ops); step += 3 {
		kind, x, y := ops[step]%5, ops[step+1], ops[step+2]
		u, v := int32(int(x)%n), int32(int(y)%n)
		switch kind {
		case 0, 1:
			fv := writable(x ^ y)
			if fv == nil {
				break
			}
			tree := refTree(n, fv.ref, u)
			if tree[v] {
				v = -1
				for w := range int32(n) {
					if !tree[w] {
						v = w
						break
					}
				}
				if v < 0 {
					break
				}
			}
			fv.f.Link(u, v)
			fv.ref[graph.NormEdge([2]int32{u, v})] = true
			touch(fv, u, v)
		case 2:
			fv := writable(x)
			if fv == nil || len(fv.ref) == 0 {
				break
			}
			es := slices.SortedFunc(maps.Keys(fv.ref), func(p, q [2]int32) int {
				return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1]))
			})
			e := es[int(y)%len(es)]
			fv.f.Cut(e[0], e[1])
			delete(fv.ref, e)
			touch(fv, e[0], e[1])
		case 3:
			fv := writable(x ^ y)
			if fv == nil {
				break
			}
			fv.f.Cut(u, v)
			if e := graph.NormEdge([2]int32{u, v}); fv.ref[e] {
				delete(fv.ref, e)
				touch(fv, u, v)
			}
		case 4:
			src := live[int(x)%len(live)]
			blocks, owners := slices.Clone(src.f.blocks), make([]uint64, len(src.f.blocks))
			for i, b := range blocks {
				if b != nil {
					owners[i] = b.owner
				}
			}
			id, size := src.f.id, src.f.Size()
			c := &forestVersion{f: src.f.Clone(), ref: maps.Clone(src.ref), src: src, touched: map[int32]bool{}}
			src.cloned = true
			if src.f.id != id || src.f.Size() != size || !slices.Equal(src.f.blocks, blocks) {
				t.Fatal("Clone wrote its source's fields or block table")
			}
			for i, b := range blocks {
				if b != nil && b.owner != owners[i] {
					t.Fatalf("Clone rewrote the owner of its source's block %d", i)
				}
			}
			live = append(live, c)
			if len(live) > maxLive {
				live = live[1:]
			}
		}
		for _, fv := range live {
			checkForestVersion(t, n, fv, u, int32(int(x^y)%n))
		}
	}
}

// TestForestCopyOnWrite runs seeded random Link/Cut/Clone sequences at
// every size of forestNs against per-version reference forests: writes to
// a clone, or to a clone of a clone, never show in the versions it shares
// blocks with, Clone writes nothing in its source, and a clone shares by
// pointer every block it has not written.
func TestForestCopyOnWrite(t *testing.T) {
	for _, n := range forestNs {
		for seed := range uint64(4) {
			rng := graph.NewRNG(1000*uint64(n) + seed)
			ops := make([]byte, 3*150)
			for i := range ops {
				ops[i] = byte(rng.Intn(256))
			}
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) { runForestOps(t, n, ops) })
		}
	}
}

// FuzzForest is TestForestCopyOnWrite on fuzzed operation sequences; the
// first byte picks n from forestNs.
func FuzzForest(f *testing.F) {
	f.Add([]byte{4, 0, 5, 0, 1, 0, 2, 3, 1, 4, 0, 0, 0, 4, 7, 2, 0, 0})
	f.Add([]byte{2, 0, 31, 1, 3, 64, 4, 0, 0, 0, 1, 2, 2, 1, 0, 4, 1, 1, 3, 30, 31})
	f.Add([]byte{3, 0, 32, 1, 31, 0, 4, 0, 0, 2, 0, 0, 4, 1, 0, 1, 32, 5})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		runForestOps(t, forestNs[int(in[0])%len(forestNs)], in[1:])
	})
}
