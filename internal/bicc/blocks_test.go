package bicc

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// checkBlocks fails the test unless b is exactly what Ref computes for the
// same edges: block id per edge in edge order, bridges, cut vertices,
// 2-edge-connected labels, vertex → blocks, adjacency and the block count,
// plus every pairwise query the oracle asks (all pairs on small graphs,
// every edge's endpoints otherwise).
func checkBlocks(t *testing.T, what string, b blocks, ref *Ref) {
	t.Helper()
	n := ref.G.N()
	if !slices.Equal(b.block, ref.EdgeBCC) {
		t.Fatalf("%s: edge blocks %v, Ref %v", what, b.block, ref.EdgeBCC)
	}
	if !slices.Equal(b.bridge, ref.BridgeSet) {
		t.Fatalf("%s: bridges %v, Ref %v", what, b.bridge, ref.BridgeSet)
	}
	if !slices.Equal(b.cut, ref.IsArticulation) {
		t.Fatalf("%s: cut vertices %v, Ref %v", what, b.cut, ref.IsArticulation)
	}
	if !slices.Equal(b.twoEdge, ref.TwoEdgeCC) {
		t.Fatalf("%s: 2ECC labels %v, Ref %v", what, b.twoEdge, ref.TwoEdgeCC)
	}
	if b.numBCC != ref.NumBCC {
		t.Fatalf("%s: %d blocks, Ref %d", what, b.numBCC, ref.NumBCC)
	}
	for v := int32(0); int(v) < n; v++ {
		if got, want := b.vertexBlocks(v), ref.VertexBCCs[v]; !slices.Equal(got, want) {
			t.Fatalf("%s: blocks of %d = %v, Ref %v", what, v, got, want)
		}
		if got, want := b.neighbors(v), ref.G.Adj(int(v)); !slices.Equal(got, want) {
			t.Fatalf("%s: adjacency of %d = %v, Ref %v", what, v, got, want)
		}
	}
	pair := func(u, v int32) {
		if got, want := b.isBridge(u, v), ref.IsBridge(u, v); got != want {
			t.Fatalf("%s: isBridge(%d,%d) = %v, Ref %v", what, u, v, got, want)
		}
		if got, want := b.edgeLabel(u, v), ref.EdgeLabel(u, v); got != want {
			t.Fatalf("%s: edgeLabel(%d,%d) = %d, Ref %d", what, u, v, got, want)
		}
		if u != v {
			if got, want := b.sameBCC(u, v), ref.SameBCC(u, v); got != want {
				t.Fatalf("%s: sameBCC(%d,%d) = %v, Ref %v", what, u, v, got, want)
			}
		}
	}
	if n <= 40 {
		for u := int32(0); int(u) < n; u++ {
			for v := int32(0); int(v) < n; v++ {
				pair(u, v)
			}
		}
		return
	}
	for _, e := range ref.G.Edges() {
		pair(e[0], e[1])
		pair(e[1], e[0])
	}
}

// TestLocalSolverMatchesRef holds the oracle's block solver to Ref on every
// local graph the oracle builds — every cluster of every graph family at
// k ∈ {2,4,8,16} — and on every small primary-free component it
// materializes, comparing the solver's result with NewRef over the very
// same edge list.
func TestLocalSolverMatchesRef(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"random-regular", graph.RandomRegular(600, 3, 5)},
		{"grid", graph.Grid2D(20, 20)},
		{"gnm", graph.GNM(400, 640, 3, true)},
		{"gnm-disconnected", graph.GNM(300, 420, 3, false)},
		{"powerlaw", graph.BoundDegree(graph.PowerLaw(500, 3, 9), 3).G},
		{"lollipop", graph.Lollipop(16, 40)},
	}
	locals, smalls := 0, 0
	for _, f := range families {
		for _, k := range []int{2, 4, 8, 16} {
			o, _, _ := buildOracle(f.g, k, 7)
			m := asym.NewMeter(k * k)
			sc := NewScratch()
			for ci := int32(0); int(ci) < o.D.NumCenters(); ci++ {
				lg := o.buildLocal(m, nil, sc, ci)
				ref := NewRef(graph.FromEdges(len(lg.nodes), sc.edges))
				checkBlocks(t, fmt.Sprintf("%s k=%d cluster %d", f.name, k, ci), lg.blocks, ref)
				locals++
			}
			for v := int32(0); int(v) < f.g.N(); v++ {
				if s := o.D.Rho(m, nil, v); s != v || o.D.CenterIndex(m, s) >= 0 {
					continue
				}
				b, idOf := o.smallComponent(m, nil, sc, v)
				var edges [][2]int32
				for x, ix := range idOf {
					for _, u := range f.g.Adj(int(x)) {
						if x < u {
							edges = append(edges, [2]int32{ix, idOf[u]})
						}
					}
				}
				ref := NewRef(graph.FromEdges(len(idOf), edges))
				checkBlocks(t, fmt.Sprintf("%s k=%d small component of %d", f.name, k, v), b, ref)
				smalls++
			}
		}
	}
	if locals == 0 || smalls == 0 {
		t.Fatalf("checked %d local graphs and %d small components; both families must be exercised", locals, smalls)
	}
	t.Logf("checked %d local graphs and %d small components", locals, smalls)
}

// FuzzLocalBlocks decodes bytes into a multigraph of at most 32 vertices —
// the first byte picks n, every later byte pair an edge, with parallel
// edges and self-loops allowed — and checks the block solver against Ref.
func FuzzLocalBlocks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{2, 0, 1, 1, 2, 2, 0})                   // triangle
	f.Add([]byte{1, 0, 1, 0, 1})                         // parallel pair
	f.Add([]byte{2, 0, 0, 0, 1, 1, 1, 1, 2})             // self-loops on a path
	f.Add([]byte{4, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 2}) // bowtie: two triangles at a cut vertex
	f.Add([]byte{5, 0, 1, 2, 3, 4, 5, 1, 2, 3, 4})       // path with a parallel copy
	f.Add([]byte{9, 1, 7, 1, 9, 5, 7, 5, 9})             // 4-cycle whose union-find root is not its smallest vertex
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 1
		if len(data) > 0 {
			n += int(data[0]) % 32
			data = data[1:]
		}
		var edges [][2]int32
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int32{int32(int(data[i]) % n), int32(int(data[i+1]) % n)})
		}
		checkBlocks(t, fmt.Sprintf("n=%d edges=%v", n, edges), solveBlocks(nil, n, edges), NewRef(graph.FromEdges(n, edges)))
	})
}

// BenchmarkLocalGraph times one cluster-cache miss — the Definition 4
// local-graph build with its block solve — on a warm scratch, over the
// degree-bounded powerlaw graph of the engine-bicc-skew workload (ω = 64,
// k = 8, seed 7), cycling through the clusters.
func BenchmarkLocalGraph(b *testing.B) {
	g := graph.BoundDegree(graph.PowerLaw(16384, 4, 99), 3).G
	bm := asym.NewMeter(64)
	o := BuildOracle(parallel.NewCtx(bm, nil), graph.View{G: g, M: bm}, nil, 8, 7)
	nc := o.D.NumCenters()
	sc := NewScratch()
	m := asym.NewMeter(64)
	for ci := 0; ci < nc; ci += 97 {
		o.buildLocal(m, nil, sc, int32(ci)) // warm the scratch
	}
	m = asym.NewMeter(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchLG = o.buildLocal(m, nil, sc, int32(i*7919%nc))
	}
	b.ReportMetric(float64(m.Reads())/float64(b.N), "reads/op")
}

var benchLG *localGraph
