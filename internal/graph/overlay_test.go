package graph

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asym"
)

func TestEdgesSelfLoopCountsOnce(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 0}, {0, 1}, {0, 1}, {2, 2}, {2, 2}})
	es := g.Edges()
	if len(es) != g.M() {
		t.Fatalf("Edges() has %d entries, M()=%d", len(es), g.M())
	}
	want := [][2]int32{{0, 0}, {0, 1}, {0, 1}, {2, 2}, {2, 2}}
	if !reflect.DeepEqual(es, want) {
		t.Fatalf("Edges()=%v want %v", es, want)
	}
}

func TestEdgeMultiplicity(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {0, 1}, {1, 2}, {3, 3}})
	for _, tc := range []struct {
		u, v int32
		want int
	}{
		{0, 1, 2}, {1, 0, 2}, {1, 2, 1}, {2, 1, 1}, {3, 3, 1},
		{0, 2, 0}, {0, 3, 0}, {0, 0, 0}, {-1, 0, 0}, {0, 9, 0},
	} {
		if got := g.EdgeMultiplicity(tc.u, tc.v); got != tc.want {
			t.Errorf("EdgeMultiplicity(%d,%d)=%d want %d", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestOverlayBuildMatchesFromEdges(t *testing.T) {
	base := GNM(40, 80, 11, true)
	ov := NewOverlay(base)
	add := [][2]int32{{0, 39}, {5, 5}, {0, 39}}
	if err := ov.AddEdges(add); err != nil {
		t.Fatal(err)
	}
	rm := base.Edges()[:3]
	if err := ov.RemoveEdges(rm); err != nil {
		t.Fatal(err)
	}
	if ov.Added() != 3 || ov.Removed() != 3 {
		t.Fatalf("added=%d removed=%d", ov.Added(), ov.Removed())
	}
	m := asym.NewMeter(64)
	got := ov.Build(m)

	// Expected: base edges minus the removed prefix, plus the additions.
	want := append(append([][2]int32{}, base.Edges()[3:]...), add...)
	exp := FromEdges(base.N(), want)
	if !reflect.DeepEqual(got.Edges(), exp.Edges()) {
		t.Fatalf("overlay build differs from FromEdges rebuild")
	}
	if got.N() != base.N() || got.M() != base.M() {
		t.Fatalf("shape n=%d m=%d want n=%d m=%d", got.N(), got.M(), base.N(), base.M())
	}
	// Every block holds an endpoint of the batch: the table, then each
	// block's offsets (one more than its vertices) and the 2m adjacency
	// words, read from the base and written anew.
	nb := numBlocks(base.N())
	if wantR, wantW := 2*nb+base.N()+2*base.M(), 2*nb+got.N()+2*got.M(); m.Reads() != int64(wantR) || m.Writes() != int64(wantW) {
		t.Fatalf("build charged %d reads, %d writes, want %d, %d", m.Reads(), m.Writes(), wantR, wantW)
	}
	// Base untouched.
	if base.M() != len(base.Edges()) {
		t.Fatal("base mutated")
	}
}

func TestOverlayRemoveStagedAdd(t *testing.T) {
	base := Path(4) // 0-1-2-3
	ov := NewOverlay(base)
	if err := ov.AddEdges([][2]int32{{0, 3}}); err != nil {
		t.Fatal(err)
	}
	// Removing the just-staged edge is legal (multiset includes the delta).
	if err := ov.RemoveEdges([][2]int32{{3, 0}}); err != nil {
		t.Fatal(err)
	}
	g := ov.Build(asym.NewMeter(1))
	if !reflect.DeepEqual(g.Edges(), base.Edges()) {
		t.Fatalf("add+remove not a no-op: %v", g.Edges())
	}
}

func TestOverlayErrors(t *testing.T) {
	base := Path(4)
	ov := NewOverlay(base)
	if err := ov.AddEdges([][2]int32{{0, 4}}); err == nil {
		t.Fatal("out-of-range add accepted")
	}
	if err := ov.AddEdges([][2]int32{{-1, 0}}); err == nil {
		t.Fatal("negative add accepted")
	}
	if err := ov.RemoveEdges([][2]int32{{0, 2}}); err == nil {
		t.Fatal("absent removal accepted")
	}
	// Removing one copy twice when only one exists must fail atomically:
	// the single {0,1} copy cannot satisfy both removals...
	if err := ov.RemoveEdges([][2]int32{{0, 1}, {1, 0}}); err == nil {
		t.Fatal("double removal of a single copy accepted")
	}
	// ...and the failed batch must not have staged anything.
	if ov.Removed() != 0 {
		t.Fatalf("failed batch staged %d removals", ov.Removed())
	}
	if err := ov.RemoveEdges([][2]int32{{0, 1}}); err != nil {
		t.Fatalf("single removal after failed batch: %v", err)
	}
}

// sameAsFromEdges fails t unless g answers every Graph accessor as
// FromEdges does on the multiset edges.
func sameAsFromEdges(t testing.TB, g *Graph, edges [][2]int32) {
	t.Helper()
	want := FromEdges(g.N(), edges)
	if g.M() != want.M() {
		t.Fatalf("M() = %d, want %d", g.M(), want.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != want.Degree(v) || !slices.Equal(g.Adj(v), want.Adj(v)) {
			t.Fatalf("vertex %d: degree %d adj %v, want %d %v", v, g.Degree(v), g.Adj(v), want.Degree(v), want.Adj(v))
		}
	}
	for _, e := range append(edges, [2]int32{0, int32(g.N() - 1)}) {
		if got, exp := g.EdgeMultiplicity(e[0], e[1]), want.EdgeMultiplicity(e[0], e[1]); got != exp {
			t.Fatalf("EdgeMultiplicity(%d,%d) = %d, want %d", e[0], e[1], got, exp)
		}
	}
	if !slices.Equal(g.Edges(), want.Edges()) {
		t.Fatalf("Edges() differs from FromEdges")
	}
}

// removeCopy returns edges without one copy of e (normalized).
func removeCopy(edges [][2]int32, e [2]int32) [][2]int32 {
	e = NormEdge(e)
	for i, f := range edges {
		if NormEdge(f) == e {
			return slices.Delete(slices.Clone(edges), i, i+1)
		}
	}
	panic("removeCopy: edge not present")
}

// TestOverlayBuildProperty runs random sequences of add and remove batches
// on vertex counts below, at, around and well past the block size, with
// self-loops, parallel edges, removals of a vertex's last copies and
// endpoints in the partial last block. After every batch each version
// built so far must match FromEdges on its multiset, the base's edges must
// be unchanged, the blocks the batch did not touch must be shared with
// the base by pointer, and Build must charge the table plus the touched
// blocks.
func TestOverlayBuildProperty(t *testing.T) {
	for _, n := range []int{1, 5, blockSize - 1, blockSize, blockSize + 1, 3*blockSize + 7, 8 * blockSize} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := NewRNG(uint64(n))
			vertex := func() int32 {
				if rng.Intn(4) == 0 { // favour the partial last block
					return int32(n - 1 - rng.Intn(min(n, 3)))
				}
				return int32(rng.Intn(n))
			}
			var edges [][2]int32
			for i := 0; i < 2*n; i++ {
				edges = append(edges, [2]int32{vertex(), vertex()})
			}
			type version struct {
				g     *Graph
				edges [][2]int32
			}
			vs := []version{{FromEdges(n, edges), edges}}
			for batch := 0; batch < 12; batch++ {
				base := vs[len(vs)-1]
				baseEdges := base.g.Edges()
				next := slices.Clone(base.edges)
				ov := NewOverlay(base.g)
				var adds, removes [][2]int32
				for i := rng.Intn(20); i > 0; i-- {
					switch r := rng.Intn(6); {
					case r == 0 && len(next) > 0: // parallel copy
						adds = append(adds, next[rng.Intn(len(next))])
					case r == 1: // self-loop
						v := vertex()
						adds = append(adds, [2]int32{v, v})
					case r >= 3 && len(next) > 0:
						e := next[rng.Intn(len(next))]
						removes = append(removes, e)
						next = removeCopy(next, e)
					default:
						adds = append(adds, [2]int32{vertex(), vertex()})
					}
				}
				if batch == 5 && n > 1 {
					// Strip every edge of the last vertex, down to its
					// last copy.
					last := int32(n - 1)
					for _, e := range slices.Clone(next) {
						if e[0] == last || e[1] == last {
							removes = append(removes, e)
							next = removeCopy(next, e)
						}
					}
				}
				next = append(next, adds...)
				if err := ov.RemoveEdges(removes); err != nil {
					t.Fatal(err)
				}
				if err := ov.AddEdges(adds); err != nil {
					t.Fatal(err)
				}
				m := asym.NewMeter(64)
				g := ov.Build(m)
				vs = append(vs, version{g, next})
				for _, v := range vs {
					sameAsFromEdges(t, v.g, v.edges)
				}
				if !slices.Equal(base.g.Edges(), baseEdges) {
					t.Fatalf("batch %d changed the base", batch)
				}

				touched := map[int]bool{}
				for e, d := range ov.delta {
					if d != 0 {
						touched[int(e[0]>>blockBits)] = true
						touched[int(e[1]>>blockBits)] = true
					}
				}
				reads, writes := len(g.blocks), len(g.blocks)
				for b := range g.blocks {
					if shared := g.blocks[b] == base.g.blocks[b]; shared == touched[b] {
						t.Fatalf("batch %d: block %d shared=%v touched=%v", batch, b, shared, touched[b])
					}
					if touched[b] {
						reads += blockLen(n, b) + 1 + len(base.g.blocks[b].adj)
						writes += blockLen(n, b) + 1 + len(g.blocks[b].adj)
					}
				}
				if m.Reads() != int64(reads) || m.Writes() != int64(writes) {
					t.Fatalf("batch %d: charged %d reads, %d writes, want %d, %d", batch, m.Reads(), m.Writes(), reads, writes)
				}
			}
		})
	}
}

// TestOverlayBuildChargesPinned pins one publish's charges by hand: on the
// 200-vertex path (full blocks, then a last block of 8 vertices), adding
// {0,199} rewrites the first and last blocks and the table.
func TestOverlayBuildChargesPinned(t *testing.T) {
	base := Path(200)
	ov := NewOverlay(base)
	if err := ov.AddEdges([][2]int32{{0, 199}}); err != nil {
		t.Fatal(err)
	}
	m := asym.NewMeter(64)
	ov.Build(m)
	// Block 0: B+1 offsets, 2B-1 adjacency words before and 2B after.
	// The last block: 9 offsets, 15 adjacency words before and 16 after.
	const B = blockSize
	nb := int64(numBlocks(200))
	if wantR, wantW := nb+(B+1+2*B-1)+(9+15), nb+(B+1+2*B)+(9+16); m.Reads() != wantR || m.Writes() != wantW {
		t.Fatalf("charged %d reads, %d writes, want %d, %d", m.Reads(), m.Writes(), wantR, wantW)
	}
}

// TestAdjAppendCopies appends to Adj(v) of a boot graph and of a version
// built on it: the append must neither overwrite the next vertex's list
// nor reach the base version through a shared block.
func TestAdjAppendCopies(t *testing.T) {
	base := Cycle(8)
	ov := NewOverlay(base)
	if err := ov.AddEdges([][2]int32{{0, 4}}); err != nil {
		t.Fatal(err)
	}
	next := ov.BuildPlain()
	for _, g := range []*Graph{base, next} {
		want1, wantBase := slices.Clone(g.Adj(1)), base.Edges()
		_ = append(g.Adj(0), 99)
		if !slices.Equal(g.Adj(1), want1) {
			t.Fatalf("append to Adj(0) changed Adj(1) to %v", g.Adj(1))
		}
		if !slices.Equal(base.Edges(), wantBase) {
			t.Fatal("append to Adj(0) changed the base version")
		}
	}
}

// TestChangedVertices checks the block diff against a full comparison and
// its charges: two reads per table entry plus both versions' degree and
// adjacency words inside the blocks the versions do not share.
func TestChangedVertices(t *testing.T) {
	base := Path(200)
	ov := NewOverlay(base)
	if err := ov.AddEdges([][2]int32{{0, 199}, {70, 70}}); err != nil {
		t.Fatal(err)
	}
	g := ov.BuildPlain()
	m := asym.NewMeter(64)
	if got := ChangedVertices(m, base, g); !slices.Equal(got, []int32{0, 70, 199}) {
		t.Fatalf("ChangedVertices = %v", got)
	}
	// The first block, 70's and the last differ: B, B and 8 vertices, 2
	// reads each, plus the adjacency words of both versions (2B-1 and 2B,
	// 2B and 2B+2, 15 and 16).
	const B = blockSize
	nb := int64(numBlocks(200))
	if want := 2*nb + 2*(B+B+8) + (2*B - 1 + 2*B) + (2*B + 2*B + 2) + (15 + 16); m.Reads() != want {
		t.Fatalf("charged %d reads, want %d", m.Reads(), want)
	}
	m = asym.NewMeter(64)
	if got := ChangedVertices(m, g, NewOverlay(g).BuildPlain()); len(got) != 0 || m.Reads() != 2*nb {
		t.Fatalf("unchanged version: %v changed, %d reads", got, m.Reads())
	}
}

// FuzzOverlayBuild decodes a small multigraph and one batch from the input
// and checks the built version against FromEdges on the same multiset, and
// the base against its edges before the build. Byte 0 picks n; the pairs
// up to the first 0xff byte are base edges, then each pair is one edit: an
// even first byte adds an edge, an odd one removes the base edge the pair
// indexes.
func FuzzOverlayBuild(f *testing.F) {
	f.Add([]byte{70, 0, 69, 3, 3, 3, 3, 0xff, 2, 69, 1, 0, 4, 4})
	f.Add([]byte{3, 0, 1, 1, 2, 0xff, 1, 1, 1, 0})
	f.Add([]byte{200, 10, 130, 130, 199, 64, 63, 0xff, 0, 199, 3, 2, 5, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		n := 1 + int(in[0])
		vtx := func(b byte) int32 { return int32(int(b) % n) }
		var edges [][2]int32
		i := 1
		for ; i+1 < len(in) && in[i] != 0xff; i += 2 {
			edges = append(edges, [2]int32{vtx(in[i]), vtx(in[i+1])})
		}
		base := FromEdges(n, edges)
		baseEdges := base.Edges()
		next := slices.Clone(edges)
		ov := NewOverlay(base)
		for i++; i+1 < len(in); i += 2 {
			if in[i]%2 == 0 {
				e := [2]int32{vtx(in[i]), vtx(in[i+1])}
				if err := ov.AddEdges([][2]int32{e}); err != nil {
					t.Fatal(err)
				}
				next = append(next, e)
				continue
			}
			if len(next) == 0 {
				continue
			}
			e := next[(int(in[i])*256+int(in[i+1]))%len(next)]
			if err := ov.RemoveEdges([][2]int32{e}); err != nil {
				t.Fatal(err)
			}
			next = removeCopy(next, e)
		}
		sameAsFromEdges(t, ov.Build(asym.NewMeter(64)), next)
		if !slices.Equal(base.Edges(), baseEdges) {
			t.Fatal("Build changed the base")
		}
	})
}

// BenchmarkOverlayBuild times one publish of a random 16-edge batch, 8
// insertions and 8 removals, on a 3-regular graph: writes/op is the table
// plus the blocks the batch touches.
func BenchmarkOverlayBuild(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := RandomRegular(n, 3, 42)
			rng := NewRNG(1)
			edges := g.Edges()
			ov := NewOverlay(g)
			for i := 0; i < 8; i++ {
				if err := ov.AddEdges([][2]int32{{int32(rng.Intn(n)), int32(rng.Intn(n))}}); err != nil {
					b.Fatal(err)
				}
				if err := ov.RemoveEdges([][2]int32{edges[rng.Intn(len(edges))]}); err != nil {
					b.Fatal(err)
				}
			}
			m := asym.NewMeter(64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ov.Build(m)
			}
			b.ReportMetric(float64(m.Writes())/float64(b.N), "writes/op")
		})
	}
}
