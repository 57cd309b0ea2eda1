package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/asym"
)

func TestFromEdgesBasics(t *testing.T) {
	g := FromEdges(4, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	for v := 0; v < 4; v++ {
		if g.Degree(v) != 2 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	if got := g.Adj(0); got[0] != 1 || got[1] != 3 {
		t.Fatalf("Adj(0) = %v (want sorted [1 3])", got)
	}
}

func TestFromEdgesOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range edge")
		}
	}()
	FromEdges(2, [][2]int32{{0, 2}})
}

func TestSelfLoopAndParallel(t *testing.T) {
	g := FromEdges(2, [][2]int32{{0, 0}, {0, 1}, {0, 1}})
	if g.Degree(0) != 4 { // self-loop twice + two parallel edges
		t.Fatalf("degree(0) = %d, want 4", g.Degree(0))
	}
	if g.Degree(1) != 2 {
		t.Fatalf("degree(1) = %d, want 2", g.Degree(1))
	}
	if g.M() != 3 {
		t.Fatalf("m = %d", g.M())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}}
	g := FromEdges(4, in)
	out := g.Edges()
	if len(out) != len(in) {
		t.Fatalf("edges = %v", out)
	}
	g2 := FromEdges(4, out)
	out2 := g2.Edges()
	for i := range out {
		if out[i] != out2[i] {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, out[i], out2[i])
		}
	}
}

func TestViewMetersReads(t *testing.T) {
	g := Cycle(5)
	m := asym.NewMeter(4)
	vw := View{G: g, M: m}
	if vw.Degree(0) != 2 {
		t.Fatal("degree")
	}
	if m.Reads() != 1 {
		t.Fatalf("reads after Degree = %d", m.Reads())
	}
	count := 0
	vw.VisitNeighbors(0, func(u int32) { count++ })
	if count != 2 {
		t.Fatalf("neighbors visited = %d", count)
	}
	if m.Reads() != 1+1+2 {
		t.Fatalf("reads = %d, want 4", m.Reads())
	}
	if got := vw.Neighbor(0, 0); got != 1 {
		t.Fatalf("Neighbor = %d", got)
	}
}

func TestCycleGridPathStructure(t *testing.T) {
	if g := Cycle(10); g.N() != 10 || g.M() != 10 || g.MaxDegree() != 2 {
		t.Fatal("cycle shape")
	}
	if g := Path(10); g.M() != 9 || g.MaxDegree() != 2 {
		t.Fatal("path shape")
	}
	g := Grid2D(5, 7)
	if g.N() != 35 || g.M() != 5*6+4*7 {
		t.Fatalf("grid m = %d", g.M())
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("grid max degree = %d", g.MaxDegree())
	}
}

func TestCycleTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Cycle(2)
}

func countComponentsRef(g *Graph) int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	c := 0
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		stack := []int{s}
		comp[s] = c
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Adj(v) {
				if comp[u] < 0 {
					comp[u] = c
					stack = append(stack, int(u))
				}
			}
		}
		c++
	}
	return c
}

func TestRandomRegularConnectedBounded(t *testing.T) {
	for _, d := range []int{2, 3, 4} {
		g := RandomRegular(200, d, 42)
		if g.N() != 200 {
			t.Fatalf("n = %d", g.N())
		}
		if g.MaxDegree() > d {
			t.Fatalf("d=%d: max degree %d", d, g.MaxDegree())
		}
		if countComponentsRef(g) != 1 {
			t.Fatalf("d=%d: not connected", d)
		}
	}
}

func TestRandomRegularPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { RandomRegular(10, 1, 1) },
		func() { RandomRegular(11, 3, 1) }, // odd n*d
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			fn()
		}()
	}
}

func TestGNM(t *testing.T) {
	g := GNM(100, 300, 7, true)
	if g.N() != 100 || g.M() != 300 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if countComponentsRef(g) != 1 {
		t.Fatal("connected GNM not connected")
	}
	// No self loops or duplicates.
	seen := map[[2]int32]bool{}
	for _, e := range g.Edges() {
		if e[0] == e[1] {
			t.Fatal("self loop")
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestGNMDisconnectedAllowed(t *testing.T) {
	g := GNM(50, 10, 3, false)
	if g.M() != 10 {
		t.Fatalf("m = %d", g.M())
	}
}

func TestGNMConnectTooFewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	GNM(10, 5, 1, true)
}

func TestRandomTree(t *testing.T) {
	g := RandomTree(64, 9)
	if g.M() != 63 || countComponentsRef(g) != 1 {
		t.Fatalf("tree m=%d comps=%d", g.M(), countComponentsRef(g))
	}
}

func TestStarCompleteShapes(t *testing.T) {
	if g := Star(10); g.Degree(0) != 9 || g.M() != 9 {
		t.Fatal("star shape")
	}
	if g := Complete(6); g.M() != 15 || g.MaxDegree() != 5 {
		t.Fatal("complete shape")
	}
}

func TestLollipopLadder(t *testing.T) {
	g := Lollipop(10, 5)
	if g.N() != 15 || countComponentsRef(g) != 1 {
		t.Fatal("lollipop")
	}
	l := Ladder(8)
	if l.N() != 16 || l.M() != 8+2*7 || countComponentsRef(l) != 1 {
		t.Fatal("ladder")
	}
}

func TestPercolationBounds(t *testing.T) {
	g := Percolation(20, 20, 0.5, 11)
	if g.N() != 400 {
		t.Fatal("n")
	}
	full := Grid2D(20, 20)
	if g.M() > full.M() {
		t.Fatal("more edges than the lattice")
	}
	if p0 := Percolation(10, 10, 0, 1); p0.M() != 0 {
		t.Fatal("p=0 has edges")
	}
	if p1 := Percolation(10, 10, 1.001, 1); p1.M() != Grid2D(10, 10).M() {
		t.Fatal("p=1 missing edges")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g := PowerLaw(500, 3, 5)
	if g.N() != 500 {
		t.Fatal("n")
	}
	if g.MaxDegree() < 10 {
		t.Fatalf("max degree %d: expected a hub", g.MaxDegree())
	}
	if countComponentsRef(g) != 1 {
		t.Fatal("power law disconnected")
	}
}

func TestDisconnected(t *testing.T) {
	g := Disconnected(Cycle(5), 4)
	if g.N() != 20 || g.M() != 20 {
		t.Fatal("shape")
	}
	if countComponentsRef(g) != 4 {
		t.Fatalf("components = %d", countComponentsRef(g))
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(33), NewRNG(33)
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Next() == NewRNG(2).Next() {
		t.Fatal("different seeds collided immediately")
	}
}

func TestRNGFloatRange(t *testing.T) {
	r := NewRNG(77)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestHash64Deterministic(t *testing.T) {
	if Hash64(1, 2) != Hash64(1, 2) {
		t.Fatal("not deterministic")
	}
	if Hash64(1, 2) == Hash64(2, 2) {
		t.Fatal("seed ignored")
	}
}

func TestEdgeIndex(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {0, 1}, {0, 2}})
	// Adj(0) sorted = [1 1 2]
	if j := g.EdgeIndex(0, 1, 0); j != 0 {
		t.Fatalf("first occurrence at %d", j)
	}
	if j := g.EdgeIndex(0, 1, 1); j != 1 {
		t.Fatalf("second occurrence at %d", j)
	}
	if j := g.EdgeIndex(0, 3, 0); j != -1 {
		t.Fatalf("missing neighbor found at %d", j)
	}
}

// --- Degree bounding (§6) ---

func TestBoundDegreeIdentityOnBounded(t *testing.T) {
	g := Cycle(10)
	b := BoundDegree(g, 3)
	if b.G.N() != 10 || b.G.M() != 10 {
		t.Fatal("bounded graph changed a bounded input")
	}
}

func TestBoundDegreeStar(t *testing.T) {
	g := Star(50) // center degree 49
	b := BoundDegree(g, 3)
	if b.G.MaxDegree() > 3 {
		t.Fatalf("max degree %d after transform", b.G.MaxDegree())
	}
	// n' = 49 gadget nodes for center + 49 leaves.
	if b.G.N() != 49+49 {
		t.Fatalf("n' = %d", b.G.N())
	}
	if countComponentsRef(b.G) != 1 {
		t.Fatal("transform disconnected the star")
	}
	// All gadget nodes of the center map back to vertex 0.
	for w := 0; w < b.G.N(); w++ {
		if b.Orig[w] == 0 && b.Rep(0) > int32(w) {
			t.Fatal("Rep is not the first gadget node")
		}
	}
}

func TestBoundDegreePreservesComponents(t *testing.T) {
	g := Disconnected(Star(20), 3)
	b := BoundDegree(g, 3)
	if got := countComponentsRef(b.G); got != 3 {
		t.Fatalf("components = %d, want 3", got)
	}
}

func TestBoundDegreeEdgeEndpoints(t *testing.T) {
	g := Star(10)
	b := BoundDegree(g, 3)
	for slot := 0; slot < g.Degree(0); slot++ {
		x, y := b.EdgeEndpoints(0, slot)
		if b.Orig[x] != 0 {
			t.Fatalf("slot %d: x maps to %d", slot, b.Orig[x])
		}
		leaf := g.Adj(0)[slot]
		if b.Orig[y] != leaf {
			t.Fatalf("slot %d: y maps to %d, want %d", slot, b.Orig[y], leaf)
		}
		if b.IsVirtualEdge(x, y) {
			t.Fatal("real edge flagged virtual")
		}
	}
}

func TestBoundDegreeVirtualEdges(t *testing.T) {
	b := BoundDegree(Star(10), 3)
	virtual := 0
	for _, e := range b.G.Edges() {
		if b.IsVirtualEdge(e[0], e[1]) {
			virtual++
		}
	}
	if virtual != 9-1 { // chain of 9 gadget nodes has 8 internal edges
		t.Fatalf("virtual edges = %d, want 8", virtual)
	}
}

func TestBoundDegreePanicsBelow3(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	BoundDegree(Cycle(4), 2)
}

func TestBoundDegreePowerLawProperty(t *testing.T) {
	// Property: for arbitrary preferential-attachment graphs the transform
	// yields max degree <= 3 and the same number of components, and the
	// number of non-virtual edges equals m.
	f := func(seed uint64) bool {
		g := PowerLaw(120, 4, seed)
		b := BoundDegree(g, 3)
		if b.G.MaxDegree() > 3 {
			return false
		}
		if countComponentsRef(b.G) != countComponentsRef(g) {
			return false
		}
		real := 0
		for _, e := range b.G.Edges() {
			if !b.IsVirtualEdge(e[0], e[1]) {
				real++
			}
		}
		return real == g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundDegreeSelfLoop(t *testing.T) {
	// Vertex 0 with a self-loop and enough other edges to force expansion.
	edges := [][2]int32{{0, 0}}
	for v := int32(1); v <= 6; v++ {
		edges = append(edges, [2]int32{0, v})
	}
	g := FromEdges(7, edges)
	b := BoundDegree(g, 3)
	if b.G.MaxDegree() > 3 {
		t.Fatalf("max degree %d", b.G.MaxDegree())
	}
	if countComponentsRef(b.G) != 1 {
		t.Fatal("disconnected")
	}
}

func TestMaxDegree(t *testing.T) {
	if Star(5).MaxDegree() != 4 {
		t.Fatal("star max degree")
	}
	if FromEdges(3, nil).MaxDegree() != 0 {
		t.Fatal("empty graph max degree")
	}
}

// TestViewEdgeMultiplicity checks the metered multiplicity probe against
// the unmetered one on a multigraph with self-loops, absent pairs and
// out-of-range ids, and that every probe is charged.
func TestViewEdgeMultiplicity(t *testing.T) {
	g := FromEdges(6, [][2]int32{{0, 1}, {0, 1}, {0, 1}, {1, 2}, {2, 2}, {2, 2}, {3, 4}, {0, 5}})
	m := asym.NewMeter(16)
	vw := View{G: g, M: m}
	for u := int32(-1); u <= 6; u++ {
		for v := int32(-1); v <= 6; v++ {
			before := m.Reads()
			if got, want := vw.EdgeMultiplicity(u, v), g.EdgeMultiplicity(u, v); got != want {
				t.Errorf("EdgeMultiplicity(%d,%d) = %d, want %d", u, v, got, want)
			}
			if m.Reads() == before {
				t.Errorf("EdgeMultiplicity(%d,%d) charged no read", u, v)
			}
		}
	}
	if m.Writes() != 0 {
		t.Errorf("probes charged %d writes", m.Writes())
	}
}
