package bicc

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func buildOracle(g *graph.Graph, k int, seed uint64) (*Oracle, *asym.Meter, *parallel.Ctx) {
	m := asym.NewMeter(k * k)
	c := parallel.NewCtx(m, asym.NewSymTracker(0))
	o := BuildOracle(c, graph.View{G: g, M: m}, nil, k, seed)
	return o, m, c
}

// checkOracle compares oracle answers against ground truth on every vertex,
// every edge, and a sample of vertex pairs.
func checkOracle(t *testing.T, g *graph.Graph, k int, seed uint64) {
	t.Helper()
	o, _, _ := buildOracle(g, k, seed)
	ref := NewRef(g)
	qm := asym.NewMeter(k * k)

	for v := int32(0); int(v) < g.N(); v++ {
		if got, want := o.IsArticulation(qm, nil, v), ref.IsArticulation[v]; got != want {
			t.Fatalf("IsArticulation(%d) = %v, want %v (k=%d seed=%d)", v, got, want, k, seed)
		}
	}
	for i, e := range g.Edges() {
		if e[0] == e[1] {
			continue
		}
		if got, want := o.IsBridge(qm, nil, e[0], e[1]), ref.BridgeSet[i]; got != want {
			t.Fatalf("IsBridge(%d,%d) = %v, want %v (k=%d seed=%d)", e[0], e[1], got, want, k, seed)
		}
	}
	rng := graph.NewRNG(seed + 777)
	for i := 0; i < 300; i++ {
		u := int32(rng.Intn(g.N()))
		v := int32(rng.Intn(g.N()))
		if u == v {
			continue
		}
		if got, want := o.Biconnected(qm, nil, u, v), ref.SameBCC(u, v); got != want {
			t.Fatalf("Biconnected(%d,%d) = %v, want %v (k=%d seed=%d)", u, v, got, want, k, seed)
		}
		if got, want := o.OneEdgeConnected(qm, nil, u, v), ref.TwoEdgeCC[u] == ref.TwoEdgeCC[v]; got != want {
			t.Fatalf("OneEdgeConnected(%d,%d) = %v, want %v (k=%d seed=%d)", u, v, got, want, k, seed)
		}
	}
	// Edge labels: same partition as the reference.
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i, e := range g.Edges() {
		if e[0] == e[1] {
			continue
		}
		got := o.EdgeBCCLabel(qm, nil, e[0], e[1])
		want := ref.EdgeBCC[i]
		if x, ok := fwd[got]; ok && x != want {
			t.Fatalf("edge (%d,%d): oracle label %d maps to ref %d and %d (k=%d seed=%d)",
				e[0], e[1], got, x, want, k, seed)
		}
		if x, ok := bwd[want]; ok && x != got {
			t.Fatalf("edge (%d,%d): ref label %d maps to oracle %d and %d (k=%d seed=%d)",
				e[0], e[1], want, x, got, k, seed)
		}
		fwd[got] = want
		bwd[want] = got
	}
	if o.NumBCC != ref.NumBCC {
		t.Fatalf("NumBCC = %d, want %d (k=%d seed=%d)", o.NumBCC, ref.NumBCC, k, seed)
	}
}

func TestOracleFigure2(t *testing.T) {
	checkOracle(t, figure2(), 3, 11)
	checkOracle(t, figure2(), 4, 12)
}

func TestOracleFamilies(t *testing.T) {
	for name, tc := range map[string]struct {
		g *graph.Graph
		k int
	}{
		"cycle":        {graph.Cycle(40), 5},
		"path":         {graph.Path(30), 4},
		"ladder":       {graph.Ladder(20), 6},
		"grid":         {graph.Grid2D(8, 8), 5},
		"3regular":     {graph.RandomRegular(90, 3, 5), 6},
		"tree":         {graph.RandomTree(60, 3), 5},
		"lollipop":     {graph.Lollipop(6, 12), 4},
		"disconnected": {graph.Disconnected(graph.Lollipop(5, 5), 3), 4},
		"small-comps":  {graph.Disconnected(graph.Cycle(4), 6), 8},
	} {
		t.Run(name, func(t *testing.T) { checkOracle(t, tc.g, tc.k, 21) })
	}
}

func TestOracleSeedsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.RandomRegular(60, 3, seed)
		o, _, _ := buildOracle(g, 5, seed+1)
		ref := NewRef(g)
		qm := asym.NewMeter(25)
		for v := int32(0); int(v) < g.N(); v++ {
			if o.IsArticulation(qm, nil, v) != ref.IsArticulation[v] {
				return false
			}
		}
		rng := graph.NewRNG(seed + 2)
		for i := 0; i < 60; i++ {
			u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
			if u == v {
				continue
			}
			if o.Biconnected(qm, nil, u, v) != ref.SameBCC(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleBridgeHeavy(t *testing.T) {
	// Trees are all bridges and articulation points: stress the bridge
	// machinery across cluster boundaries.
	g := graph.RandomTree(120, 9)
	checkOracle(t, g, 6, 31)
}

func TestOracleSublinearWrites(t *testing.T) {
	// Theorem 5.3: O(n/√ω) writes. The constant is ~30 words of per-cluster
	// state, so sublinearity in n needs k above that; also check the O(n/k)
	// scaling directly across two k values.
	g := graph.RandomRegular(4000, 3, 41)
	o64, m64, _ := buildOracle(g, 64, 43)
	_ = o64
	if m64.Writes() >= int64(g.N()) {
		t.Fatalf("writes = %d not sublinear in n = %d", m64.Writes(), g.N())
	}
	o16, m16, _ := buildOracle(g, 16, 43)
	_ = o16
	// Quadrupling k should cut writes by roughly 4; demand at least 2x.
	if m64.Writes()*2 > m16.Writes() {
		t.Fatalf("writes k=64: %d, k=16: %d — not scaling as n/k", m64.Writes(), m16.Writes())
	}
	limit := int64(40 * g.N() / 64)
	if m64.Writes() > limit {
		t.Fatalf("writes = %d > %d (n=%d k=64)", m64.Writes(), limit, g.N())
	}
}

func TestOracleQueryCost(t *testing.T) {
	// Queries: O(k²) expected reads, zero writes.
	g := graph.RandomRegular(1000, 3, 51)
	k := 8
	o, _, _ := buildOracle(g, k, 53)
	qm := asym.NewMeter(k * k)
	var reads int64
	const pairs = 200
	rng := graph.NewRNG(99)
	for i := 0; i < pairs; i++ {
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		before := qm.Snapshot()
		o.Biconnected(qm, nil, u, v)
		d := qm.Snapshot().Sub(before)
		if d.Writes != 0 {
			t.Fatalf("query wrote %d words", d.Writes)
		}
		reads += d.Reads
	}
	avg := reads / pairs
	if avg > int64(120*k*k) {
		t.Fatalf("avg query reads = %d, want O(k²) = O(%d)", avg, k*k)
	}
}

func TestOracleVsBCLabelingAgreement(t *testing.T) {
	// The two §5 implementations must agree with each other end to end.
	g := graph.GNM(150, 250, 61, true)
	// The oracle requires bounded degree for its cost bounds, but remains
	// correct on any graph; compare answers anyway.
	b, _, _ := buildBC(g, 8)
	o, _, _ := buildOracle(g, 5, 63)
	qm := asym.NewMeter(25)
	rng := graph.NewRNG(7)
	for i := 0; i < 200; i++ {
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		if u == v {
			continue
		}
		if b.SameBCC(qm, u, v) != o.Biconnected(qm, nil, u, v) {
			t.Fatalf("BC labeling and oracle disagree on (%d,%d)", u, v)
		}
	}
}

func TestOracleEmptyAndTiny(t *testing.T) {
	empty := graph.FromEdges(2, nil)
	o, _, _ := buildOracle(empty, 4, 1)
	qm := asym.NewMeter(16)
	if o.Biconnected(qm, nil, 0, 1) {
		t.Fatal("isolated vertices biconnected")
	}
	single := graph.FromEdges(2, [][2]int32{{0, 1}})
	o2, _, _ := buildOracle(single, 4, 1)
	if !o2.IsBridge(qm, nil, 0, 1) {
		t.Fatal("single edge not bridge")
	}
	if o2.IsArticulation(qm, nil, 0) {
		t.Fatal("endpoint articulation")
	}
}

func TestOracleDeterministic(t *testing.T) {
	g := graph.Grid2D(10, 10)
	a, _, _ := buildOracle(g, 5, 99)
	b, _, _ := buildOracle(g, 5, 99)
	qm := asym.NewMeter(25)
	for _, e := range g.Edges() {
		if a.EdgeBCCLabel(qm, nil, e[0], e[1]) != b.EdgeBCCLabel(qm, nil, e[0], e[1]) {
			t.Fatal("oracle not deterministic")
		}
	}
}

// sparseGraphs returns the sparse inputs of TestOracleRandomSparse for one
// seed: G(n,m) graphs near the tree threshold, where components are paths
// and small cycles hung off each other by bridges and cut vertices, each
// also with parallel copies of a few of its edges (a doubled bridge is a
// 2-cycle block, and a doubled cluster tree edge is a parallel edge of the
// clusters graph).
func sparseGraphs(seed uint64) map[string]*graph.Graph {
	out := map[string]*graph.Graph{}
	rng := graph.NewRNG(seed + 4242)
	for _, n := range []int{20, 30, 45} {
		for _, m := range []int{n * 3 / 4, n + n/4} {
			g := graph.GNM(n, m, 1000*seed+uint64(n*m), false)
			out[fmt.Sprintf("n=%d/m=%d", n, m)] = g
			edges := g.Edges()
			multi := append([][2]int32{}, edges...)
			for i := 0; i < 1+len(edges)/8; i++ {
				e := edges[rng.Intn(len(edges))]
				multi = append(multi, e, e)
			}
			out[fmt.Sprintf("n=%d/m=%d/multi", n, m)] = graph.FromEdges(n, multi)
		}
	}
	return out
}

// TestOracleRandomSparse checks every answer of the oracle against Ref on
// sparse graphs and multigraphs, over small k and many decomposition
// seeds: the inputs where the clusters graph is a tree-like multigraph
// and small primary-free components are common.
func TestOracleRandomSparse(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		for name, g := range sparseGraphs(seed) {
			for k := 2; k <= 5; k++ {
				t.Run(fmt.Sprintf("seed=%d/%s/k=%d", seed, name, k), func(t *testing.T) {
					checkOracle(t, g, k, seed)
				})
			}
		}
	}
}

// FuzzOracle checks the oracle against Ref on fuzzed small multigraphs
// (parallel copies and self-loops allowed) under a fuzzed k and
// decomposition seed. The first three bytes pick n, k and the seed; each
// further byte pair is an edge.
func FuzzOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 1, 0, 1, 1, 2, 2, 0})                                                         // triangle
	f.Add([]byte{4, 1, 2, 0, 1, 0, 1, 1, 2, 2, 3, 3, 4})                                             // path with a doubled edge
	f.Add([]byte{19, 2, 5, 0, 1, 0, 19, 1, 2, 2, 3, 14, 15, 14, 16, 15, 16, 16, 17, 17, 18, 18, 19}) // a bridge below a critical cluster tree edge
	f.Add([]byte{7, 0, 3, 0, 1, 1, 2, 2, 3, 3, 0, 4, 4, 5, 6, 6, 7, 7, 5, 3, 5})                     // two blocks, a self-loop and a bridge
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 1 + int(data[0])%40
		k := 2 + int(data[1])%4
		seed := uint64(data[2])
		var edges [][2]int32
		for i := 3; i+1 < len(data); i += 2 {
			edges = append(edges, [2]int32{int32(int(data[i]) % n), int32(int(data[i+1]) % n)})
		}
		checkOracle(t, graph.FromEdges(n, edges), k, seed)
	})
}
