package decomp

import (
	"testing"
	"testing/quick"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/unionfind"
)

func build(g *graph.Graph, k int, seed uint64, opt Options) (*Decomposition, *asym.Meter, *parallel.Ctx) {
	m := asym.NewMeter(asym.DefaultOmega)
	c := parallel.NewCtx(m, asym.NewSymTracker(0))
	d := Build(c, graph.View{G: g, M: m}, k, seed, opt)
	return d, m, c
}

// checkInvariants verifies the Theorem 3.1 properties on any graph:
// every vertex maps to a center (or implicit center), clusters are
// connected, cluster sizes are at most k (for components >= k), clusters
// stay within one connected component, and C(s) inverts ρ.
func checkInvariants(t *testing.T, g *graph.Graph, d *Decomposition) {
	t.Helper()
	qm := asym.NewMeter(1)
	n := g.N()

	// Reference components.
	uf := unionfind.NewRef(n)
	for _, e := range g.Edges() {
		uf.Union(e[0], e[1])
	}
	compSize := map[int32]int{}
	for v := 0; v < n; v++ {
		compSize[uf.Find(int32(v))]++
	}

	rho := make([]int32, n)
	clusterSize := map[int32]int{}
	for v := 0; v < n; v++ {
		rho[v] = d.Rho(qm, nil, int32(v))
		clusterSize[rho[v]]++
		if !uf.Same(int32(v), rho[v]) {
			t.Fatalf("rho(%d)=%d crosses components", v, rho[v])
		}
	}
	// Centers map to themselves.
	for v := 0; v < n; v++ {
		if d.isCenter.RawGet(v) && rho[v] != int32(v) {
			t.Fatalf("center %d has rho %d", v, rho[v])
		}
	}
	// Cluster size bound: at most k whenever the component has size >= k
	// (smaller components form one whole-component cluster).
	for s, size := range clusterSize {
		if compSize[uf.Find(s)] >= d.K() && size > d.K() {
			t.Fatalf("cluster %d has size %d > k=%d", s, size, d.K())
		}
	}
	// Cluster connectivity: union edges within clusters; every vertex must
	// reach its center.
	cu := unionfind.NewRef(n)
	for _, e := range g.Edges() {
		if rho[e[0]] == rho[e[1]] {
			cu.Union(e[0], e[1])
		}
	}
	for v := 0; v < n; v++ {
		if !cu.Same(int32(v), rho[v]) {
			t.Fatalf("vertex %d not connected to center %d within cluster", v, rho[v])
		}
	}
	// C(s) inverts rho for every stored center.
	for i := 0; i < d.NumCenters(); i++ {
		s := d.Center(qm, i)
		members := d.Cluster(qm, nil, s)
		if len(members) != clusterSize[s] {
			t.Fatalf("Cluster(%d) size %d, rho counts %d", s, len(members), clusterSize[s])
		}
		for _, v := range members {
			if rho[v] != s {
				t.Fatalf("Cluster(%d) contains %d with rho %d", s, v, rho[v])
			}
		}
	}
}

func TestInvariantsCycle(t *testing.T) {
	g := graph.Cycle(64)
	d, _, _ := build(g, 8, 1, Options{})
	checkInvariants(t, g, d)
}

func TestInvariantsGrid(t *testing.T) {
	g := graph.Grid2D(12, 12)
	d, _, _ := build(g, 6, 2, Options{})
	checkInvariants(t, g, d)
}

func TestInvariants3Regular(t *testing.T) {
	g := graph.RandomRegular(150, 3, 3)
	d, _, _ := build(g, 10, 4, Options{})
	checkInvariants(t, g, d)
}

func TestInvariantsTree(t *testing.T) {
	g := graph.RandomTree(100, 5)
	d, _, _ := build(g, 7, 6, Options{})
	checkInvariants(t, g, d)
}

func TestInvariantsDisconnected(t *testing.T) {
	// Mix of small (< k) and large components.
	g := graph.Disconnected(graph.Cycle(5), 3) // size-5 comps, k=8: implicit centers
	d, _, _ := build(g, 8, 7, Options{})
	checkInvariants(t, g, d)

	g2 := graph.Disconnected(graph.Cycle(40), 4) // size-40 comps
	d2, _, _ := build(g2, 8, 8, Options{})
	checkInvariants(t, g2, d2)
}

func TestInvariantsParallelVariant(t *testing.T) {
	g := graph.Grid2D(12, 12)
	d, _, _ := build(g, 6, 2, Options{Parallel: true})
	checkInvariants(t, g, d)
	g2 := graph.RandomRegular(150, 3, 9)
	d2, _, _ := build(g2, 10, 10, Options{Parallel: true})
	checkInvariants(t, g2, d2)
}

func TestInvariantsK1(t *testing.T) {
	// k=1: every vertex its own cluster.
	g := graph.Cycle(10)
	d, _, _ := build(g, 1, 11, Options{})
	qm := asym.NewMeter(1)
	for v := int32(0); v < 10; v++ {
		if d.Rho(qm, nil, v) != v {
			t.Fatalf("k=1: rho(%d)=%d", v, d.Rho(qm, nil, v))
		}
	}
}

func TestInvariantsKBiggerThanN(t *testing.T) {
	g := graph.Cycle(6)
	d, _, _ := build(g, 100, 12, Options{})
	checkInvariants(t, g, d)
	// Whole graph may be one cluster; all vertices share one center.
	qm := asym.NewMeter(1)
	c0 := d.Rho(qm, nil, 0)
	for v := int32(1); v < 6; v++ {
		if d.Rho(qm, nil, v) != c0 {
			t.Fatalf("k>n: split into multiple clusters")
		}
	}
}

func TestCenterCountLinearInNOverK(t *testing.T) {
	// Theorem 3.1: |S| = O(n/k). Constant allowance 6 (the paper's own
	// constant is unstated; splits guarantee pieces of size >= k/(d+1)).
	for _, k := range []int{4, 8, 16} {
		g := graph.RandomRegular(1200, 3, uint64(k))
		d, _, _ := build(g, k, uint64(100+k), Options{})
		limit := 6*g.N()/k + 4
		if d.NumCenters() > limit {
			t.Fatalf("k=%d: |S| = %d > %d", k, d.NumCenters(), limit)
		}
		if d.NumCenters() == 0 {
			t.Fatalf("k=%d: no centers", k)
		}
	}
}

func TestConstructionWritesSublinear(t *testing.T) {
	// Lemma 3.6: O(n/k) writes. The bitmap marks, center list, and nothing
	// else; allowance 8x n/k.
	g := graph.RandomRegular(2000, 3, 21)
	k := 16
	d, m, _ := build(g, k, 22, Options{})
	_ = d
	limit := int64(8 * g.N() / k)
	if m.Writes() > limit {
		t.Fatalf("writes = %d > %d (n=%d k=%d)", m.Writes(), limit, g.N(), k)
	}
}

func TestRhoQueryCostAndNoWrites(t *testing.T) {
	// Lemma 3.2: O(k) expected operations, no writes.
	g := graph.RandomRegular(1000, 3, 31)
	k := 16
	d, _, _ := build(g, k, 32, Options{})
	qm := asym.NewMeter(asym.DefaultOmega)
	totalReads := int64(0)
	for v := 0; v < g.N(); v++ {
		before := qm.Snapshot()
		d.Rho(qm, nil, int32(v))
		delta := qm.Snapshot().Sub(before)
		if delta.Writes != 0 {
			t.Fatalf("rho(%d) wrote %d words", v, delta.Writes)
		}
		totalReads += delta.Reads
	}
	avg := totalReads / int64(g.N())
	// Expected O(k) visits, each costing O(degree) reads; allow 40*k.
	if avg > int64(40*k) {
		t.Fatalf("avg rho reads = %d, want O(k)=O(%d)", avg, k)
	}
}

func TestClusterQueryCost(t *testing.T) {
	// Lemma 3.5: O(k^2) expected operations per cluster listing.
	g := graph.RandomRegular(600, 3, 41)
	k := 8
	d, _, _ := build(g, k, 42, Options{})
	qm := asym.NewMeter(1)
	var total int64
	for i := 0; i < d.NumCenters(); i++ {
		s := d.Center(qm, i)
		before := qm.Snapshot()
		d.Cluster(qm, nil, s)
		delta := qm.Snapshot().Sub(before)
		if delta.Writes != 0 {
			t.Fatalf("Cluster(%d) wrote", s)
		}
		total += delta.Reads
	}
	avg := total / int64(d.NumCenters())
	if avg > int64(60*k*k) {
		t.Fatalf("avg cluster reads = %d, want O(k^2)=O(%d)", avg, k*k)
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.Grid2D(10, 10)
	a, _, _ := build(g, 6, 99, Options{})
	b, _, _ := build(g, 6, 99, Options{})
	if a.NumCenters() != b.NumCenters() {
		t.Fatalf("center counts differ: %d vs %d", a.NumCenters(), b.NumCenters())
	}
	qm := asym.NewMeter(1)
	for v := 0; v < g.N(); v++ {
		if a.Rho(qm, nil, int32(v)) != b.Rho(qm, nil, int32(v)) {
			t.Fatalf("rho(%d) differs", v)
		}
	}
}

func TestSeedChangesDecomposition(t *testing.T) {
	g := graph.Grid2D(16, 16)
	a, _, _ := build(g, 8, 1, Options{})
	b, _, _ := build(g, 8, 2, Options{})
	qm := asym.NewMeter(1)
	diff := 0
	for v := 0; v < g.N(); v++ {
		if a.Rho(qm, nil, int32(v)) != b.Rho(qm, nil, int32(v)) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical decompositions")
	}
}

func TestCenterIndexRoundTrip(t *testing.T) {
	g := graph.RandomRegular(300, 3, 51)
	d, _, _ := build(g, 8, 52, Options{})
	qm := asym.NewMeter(1)
	for i := 0; i < d.NumCenters(); i++ {
		s := d.Center(qm, i)
		if got := d.CenterIndex(qm, s); got != i {
			t.Fatalf("CenterIndex(%d) = %d, want %d", s, got, i)
		}
	}
	if d.CenterIndex(qm, -5) != -1 {
		t.Fatal("bogus center found")
	}
}

// refCenterIndex is the reference CenterIndex: a binary search over the
// sorted center list.
func refCenterIndex(centers []int32, s int32) int {
	lo, hi := 0, len(centers)
	for lo < hi {
		mid := (lo + hi) / 2
		if centers[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(centers) && centers[lo] == s {
		return lo
	}
	return -1
}

// TestCenterIndexMatchesBinarySearch checks the rank-directory CenterIndex
// against a binary search over the sorted centers at every vertex — centers,
// non-centers and the implicit centers of small primary-free components —
// together with its exact charge: one read for a non-center, two for a
// center.
func TestCenterIndexMatchesBinarySearch(t *testing.T) {
	cases := []struct {
		name     string
		g        *graph.Graph
		implicit bool // has small primary-free components
	}{
		{"random-regular", graph.RandomRegular(1000, 3, 42), false},
		{"grid", graph.Grid2D(30, 30), false},
		{"disconnected-cycles", graph.Disconnected(graph.Cycle(5), 13), true},
		{"powerlaw", graph.BoundDegree(graph.PowerLaw(2000, 4, 3), 3).G, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _, _ := build(tc.g, 8, 7, Options{})
			n := tc.g.N()
			if n%64 == 0 {
				t.Fatalf("n = %d fills its last directory word; pick a size that does not", n)
			}
			centers := d.centers.Raw()
			implicit := 0
			for v := int32(0); int(v) < n; v++ {
				m := asym.NewMeter(1)
				got, want := d.CenterIndex(m, v), refCenterIndex(centers, v)
				if got != want {
					t.Fatalf("CenterIndex(%d) = %d, binary search says %d", v, got, want)
				}
				wantReads := int64(1)
				if want >= 0 {
					wantReads = 2
				}
				if m.Reads() != wantReads {
					t.Fatalf("CenterIndex(%d) charged %d reads, want %d", v, m.Reads(), wantReads)
				}
				if want < 0 && d.Rho(asym.NewMeter(1), nil, v) == v {
					implicit++
				}
			}
			if (implicit > 0) != tc.implicit {
				t.Fatalf("%d implicit centers, want some: %v", implicit, tc.implicit)
			}
			for _, s := range []int32{-1, int32(n)} {
				if got := d.CenterIndex(asym.NewMeter(1), s); got != -1 {
					t.Fatalf("CenterIndex(%d) = %d for a non-vertex", s, got)
				}
			}
		})
	}
}

func TestIsCenterIsPrimary(t *testing.T) {
	g := graph.Cycle(64)
	d, _, _ := build(g, 8, 61, Options{})
	qm := asym.NewMeter(1)
	prim, sec := 0, 0
	for v := int32(0); v < 64; v++ {
		if d.IsPrimary(qm, v) {
			prim++
			if !d.IsCenter(qm, v) {
				t.Fatalf("primary %d not a center", v)
			}
		} else if d.IsCenter(qm, v) {
			sec++
		}
	}
	if prim != d.PrimaryCount || sec != d.SecondaryCount {
		t.Fatalf("counts: prim %d/%d sec %d/%d", prim, d.PrimaryCount, sec, d.SecondaryCount)
	}
}

func TestNeighborCenters(t *testing.T) {
	g := graph.Cycle(60)
	d, _, _ := build(g, 6, 71, Options{})
	qm := asym.NewMeter(1)
	// On a cycle, every cluster is an arc: exactly 2 neighbor centers
	// (unless there are fewer than 3 clusters).
	if d.NumCenters() < 3 {
		t.Skip("too few clusters for the arc property")
	}
	for i := 0; i < d.NumCenters(); i++ {
		s := d.Center(qm, i)
		nbrs := d.NeighborCenters(qm, nil, s)
		if len(nbrs) != 2 {
			t.Fatalf("center %d has %d neighbor centers, want 2", s, len(nbrs))
		}
		for _, e := range nbrs {
			if e.Other == s {
				t.Fatal("self neighbor")
			}
			if d.Rho(qm, nil, e.From) != s || d.Rho(qm, nil, e.To) != e.Other {
				t.Fatal("witness edge maps to wrong clusters")
			}
			// Witness must be a real edge.
			found := false
			for _, u := range g.Adj(int(e.From)) {
				if u == e.To {
					found = true
				}
			}
			if !found {
				t.Fatalf("witness (%d,%d) not an edge", e.From, e.To)
			}
		}
	}
}

func TestSmallComponentImplicitCenter(t *testing.T) {
	// Components smaller than k with no sampled primary must resolve to
	// their smallest vertex (never written out). Components that happen to
	// contain a sampled primary follow the normal rules; either way all
	// members agree on one in-component center.
	g := graph.Disconnected(graph.Cycle(4), 5) // 5 comps of size 4
	d, _, _ := build(g, 10, 81, Options{})
	qm := asym.NewMeter(1)
	for comp := 0; comp < 5; comp++ {
		base := int32(comp * 4)
		hasPrimary := false
		for v := base; v < base+4; v++ {
			if d.IsPrimary(qm, v) {
				hasPrimary = true
			}
		}
		if hasPrimary {
			continue
		}
		for v := base; v < base+4; v++ {
			if got := d.Rho(qm, nil, v); got != base {
				t.Fatalf("rho(%d) = %d, want implicit center %d", v, got, base)
			}
		}
	}
}

func TestLargeComponentAlwaysHasPrimary(t *testing.T) {
	// A component of size >= k with no sampled primary must get one from
	// the extension. Seed chosen arbitrarily; property must hold for all.
	f := func(seed uint64) bool {
		g := graph.Disconnected(graph.Cycle(12), 6) // six size-12 comps
		d, _, _ := build(g, 8, seed, Options{})
		qm := asym.NewMeter(1)
		for comp := 0; comp < 6; comp++ {
			base := int(comp * 12)
			found := false
			for v := base; v < base+12; v++ {
				if d.IsPrimary(qm, int32(v)) {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantsProperty(t *testing.T) {
	// Property check across random bounded-degree graphs and seeds.
	f := func(seed uint64) bool {
		g := graph.RandomRegular(120, 3, seed)
		m := asym.NewMeter(16)
		c := parallel.NewCtx(m, asym.NewSymTracker(0))
		d := Build(c, graph.View{G: g, M: m}, 6, seed+13, Options{})
		qm := asym.NewMeter(1)
		sizes := map[int32]int{}
		for v := 0; v < g.N(); v++ {
			sizes[d.Rho(qm, nil, int32(v))]++
		}
		for _, sz := range sizes {
			if sz > 6 {
				return false
			}
		}
		return len(sizes) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	build(graph.Cycle(5), 0, 1, Options{})
}

func TestSymmetricMemoryBudget(t *testing.T) {
	// Theorem 3.1: construction and queries use O(k log n) symmetric words.
	g := graph.RandomRegular(500, 3, 91)
	k := 8
	m := asym.NewMeter(asym.DefaultOmega)
	sym := asym.NewSymTracker(0)
	c := parallel.NewCtx(m, sym)
	d := Build(c, graph.View{G: g, M: m}, k, 92, Options{})
	logn := log2ceil(g.N())
	// Allowance: 16 * k log n words (each map entry counted as 2 words).
	limit := int64(16 * k * logn)
	if hw := sym.HighWater(); hw > limit {
		t.Fatalf("construction symmetric high water = %d > %d", hw, limit)
	}
	sym.Reset()
	qm := asym.NewMeter(1)
	for v := 0; v < 50; v++ {
		d.Rho(qm, sym, int32(v))
	}
	if hw := sym.HighWater(); hw > limit {
		t.Fatalf("query symmetric high water = %d > %d", hw, limit)
	}
}

func TestParallelDepthPolylog(t *testing.T) {
	// Lemma 3.7: depth O(k log n (k^2 log n + omega)) — far below the
	// sequential work O(nk). Check depth << work on a sizable instance.
	g := graph.RandomRegular(2000, 3, 95)
	k := 8
	m := asym.NewMeter(16)
	c := parallel.NewCtx(m, asym.NewSymTracker(0))
	Build(c, graph.View{G: g, M: m}, k, 96, Options{Parallel: true})
	if c.Depth() <= 0 {
		t.Fatal("no depth recorded")
	}
	if c.Depth() >= m.Work()/4 {
		t.Fatalf("depth %d not far below work %d", c.Depth(), m.Work())
	}
}
