package conn

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/asym"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/unionfind"
)

func env(omega int) (*asym.Meter, *parallel.Ctx) {
	m := asym.NewMeter(omega)
	return m, parallel.NewCtx(m, asym.NewSymTracker(0))
}

// refLabels computes ground-truth component labels (min vertex id).
func refLabels(g *graph.Graph) []int32 {
	uf := unionfind.NewRef(g.N())
	for _, e := range g.Edges() {
		uf.Union(e[0], e[1])
	}
	return uf.Components()
}

// samePartition checks that two labelings induce the same partition.
func samePartition(a, b []int32) bool {
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := range a {
		if x, ok := fwd[a[i]]; ok && x != b[i] {
			return false
		}
		if x, ok := bwd[b[i]]; ok && x != a[i] {
			return false
		}
		fwd[a[i]] = b[i]
		bwd[b[i]] = a[i]
	}
	return true
}

func countComponents(labels []int32) int {
	s := map[int32]bool{}
	for _, l := range labels {
		s[l] = true
	}
	return len(s)
}

func TestSequentialMatchesRef(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(20),
		graph.Disconnected(graph.Cycle(7), 3),
		graph.GNM(100, 150, 3, false),
		graph.FromEdges(5, nil), // no edges: all singletons
	} {
		m, c := env(8)
		res := Sequential(c, graph.View{G: g, M: m}, false)
		ref := refLabels(g)
		if !samePartition(res.Labels.Raw(), ref) {
			t.Fatalf("partition mismatch on n=%d m=%d", g.N(), g.M())
		}
		if res.NumComponents != countComponents(ref) {
			t.Fatalf("components = %d, want %d", res.NumComponents, countComponents(ref))
		}
	}
}

func TestSequentialForest(t *testing.T) {
	g := graph.GNM(80, 200, 5, true)
	m, c := env(8)
	res := Sequential(c, graph.View{G: g, M: m}, true)
	if len(res.Forest) != g.N()-1 {
		t.Fatalf("forest edges = %d, want %d", len(res.Forest), g.N()-1)
	}
	uf := unionfind.NewRef(g.N())
	for _, e := range res.Forest {
		if !uf.Union(e[0], e[1]) {
			t.Fatal("forest has a cycle")
		}
	}
}

func TestParallelMatchesRef(t *testing.T) {
	for _, tc := range []struct {
		g    *graph.Graph
		beta float64
	}{
		{graph.GNM(300, 1200, 7, true), 0},
		{graph.GNM(300, 600, 9, false), 0.25},
		{graph.Grid2D(20, 20), 0},
		{graph.Disconnected(graph.Cycle(15), 4), 0.1},
	} {
		m, c := env(16)
		res := Parallel(c, graph.View{G: tc.g, M: m}, tc.beta, 42, false)
		ref := refLabels(tc.g)
		if !samePartition(res.Labels.Raw(), ref) {
			t.Fatalf("partition mismatch (beta=%v)", tc.beta)
		}
		if res.NumComponents != countComponents(ref) {
			t.Fatalf("components = %d, want %d", res.NumComponents, countComponents(ref))
		}
	}
}

func TestParallelForestSpans(t *testing.T) {
	g := graph.GNM(200, 800, 11, true)
	m, c := env(16)
	res := Parallel(c, graph.View{G: g, M: m}, 0, 13, true)
	if len(res.Forest) != g.N()-1 {
		t.Fatalf("forest edges = %d, want %d", len(res.Forest), g.N()-1)
	}
	uf := unionfind.NewRef(g.N())
	for _, e := range res.Forest {
		if !uf.Union(e[0], e[1]) {
			t.Fatal("forest has a cycle")
		}
	}
	// Forest edges must be real edges... cross-cluster forest edges are in
	// cluster-source space? No: Parallel emits original-graph edges for
	// in-cluster trees and source-space edges for the contracted forest.
	// The count and acyclicity over vertex ids are the meaningful checks.
}

func TestParallelWriteEfficiency(t *testing.T) {
	// Theorem 4.2 with beta=1/omega: writes O(n + m/omega), far below m.
	g := graph.GNM(1000, 16000, 17, true)
	omega := 32
	m, c := env(omega)
	Parallel(c, graph.View{G: g, M: m}, 0, 19, false)
	limit := int64(8*g.N()) + int64(4*g.M()/omega)
	if m.Writes() > limit {
		t.Fatalf("writes = %d > %d (n=%d m=%d omega=%d)",
			m.Writes(), limit, g.N(), g.M(), omega)
	}
}

func TestParallelBeatsBaselineOnWrites(t *testing.T) {
	// The headline Table 1 comparison: baseline performs Θ(m) contraction
	// writes, ours O(n + m/omega).
	g := graph.GNM(800, 12800, 23, true)
	omega := 64

	mOurs, cOurs := env(omega)
	Parallel(cOurs, graph.View{G: g, M: mOurs}, 0, 29, false)

	mBase, cBase := env(omega)
	resBase := Baseline(cBase, graph.View{G: g, M: mBase}, 29)

	if !samePartition(resBase.Labels.Raw(), refLabels(g)) {
		t.Fatal("baseline wrong")
	}
	if mOurs.Writes()*2 >= mBase.Writes() {
		t.Fatalf("ours %d writes, baseline %d writes: expected clear win",
			mOurs.Writes(), mBase.Writes())
	}
	if mOurs.Work() >= mBase.Work() {
		t.Fatalf("ours %d work, baseline %d work", mOurs.Work(), mBase.Work())
	}
}

func TestBaselineMatchesRef(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNM(120, 300, seed, false)
		m, c := env(8)
		res := Baseline(c, graph.View{G: g, M: m}, seed+1)
		return samePartition(res.Labels.Raw(), refLabels(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.GNM(150, 300, seed, false)
		m, c := env(16)
		res := Parallel(c, graph.View{G: g, M: m}, 0, seed+7, false)
		return samePartition(res.Labels.Raw(), refLabels(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// --- Oracle (Theorem 4.4) ---

func TestOracleMatchesRefConnected(t *testing.T) {
	g := graph.RandomRegular(400, 3, 31)
	m, c := env(64)
	o := BuildOracle(c, graph.View{G: g, M: m}, 0, 33)
	qm := asym.NewMeter(64)
	ref := refLabels(g)
	got := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		got[v] = o.Query(qm, nil, int32(v))
	}
	if !samePartition(got, ref) {
		t.Fatal("oracle partition mismatch")
	}
	if o.NumComponents != 1 {
		t.Fatalf("NumComponents = %d", o.NumComponents)
	}
}

func TestOracleDisconnectedMixedSizes(t *testing.T) {
	// Large components + small (< k) primary-free components together.
	edges := [][2]int32{}
	// Component A: cycle 0..39. Component B: cycle 40..79. C: path 80-81.
	for i := 0; i < 40; i++ {
		edges = append(edges, [2]int32{int32(i), int32((i + 1) % 40)})
	}
	for i := 0; i < 40; i++ {
		edges = append(edges, [2]int32{int32(40 + i), int32(40 + (i+1)%40)})
	}
	edges = append(edges, [2]int32{80, 81})
	g := graph.FromEdges(82, edges)

	m, c := env(36) // k = 6
	o := BuildOracle(c, graph.View{G: g, M: m}, 0, 35)
	qm := asym.NewMeter(36)
	got := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		got[v] = o.Query(qm, nil, int32(v))
	}
	if !samePartition(got, refLabels(g)) {
		t.Fatal("oracle partition mismatch")
	}
	if !o.Connected(qm, nil, 0, 39) || o.Connected(qm, nil, 0, 40) ||
		o.Connected(qm, nil, 0, 80) || !o.Connected(qm, nil, 80, 81) {
		t.Fatal("Connected answers wrong")
	}
}

func TestOracleSublinearWrites(t *testing.T) {
	// Theorem 4.4: O(n/√ω) writes. With omega=256 (k=16) the writes must
	// be well below n.
	g := graph.RandomRegular(4000, 3, 41)
	omega := 256
	m, c := env(omega)
	BuildOracle(c, graph.View{G: g, M: m}, 0, 43)
	k := DefaultK(omega)
	limit := int64(20 * g.N() / k)
	if m.Writes() > limit {
		t.Fatalf("writes = %d > %d (n=%d k=%d)", m.Writes(), limit, g.N(), k)
	}
	if m.Writes() >= int64(g.N()) {
		t.Fatalf("writes = %d not sublinear in n=%d", m.Writes(), g.N())
	}
}

func TestOracleQueryCostNoWrites(t *testing.T) {
	g := graph.RandomRegular(1000, 3, 51)
	omega := 64
	m, c := env(omega)
	o := BuildOracle(c, graph.View{G: g, M: m}, 0, 53)
	k := DefaultK(omega)
	qm := asym.NewMeter(omega)
	var reads int64
	for v := 0; v < g.N(); v++ {
		before := qm.Snapshot()
		o.Query(qm, nil, int32(v))
		d := qm.Snapshot().Sub(before)
		if d.Writes != 0 {
			t.Fatalf("query wrote %d", d.Writes)
		}
		reads += d.Reads
	}
	avg := reads / int64(g.N())
	// O(k) expected plus a constant-read label lookup; allow 40k.
	if avg > int64(40*k) {
		t.Fatalf("avg query reads = %d, want O(k)=O(%d)", avg, k)
	}
}

// TestOracleQueryReadsIndependentOfN holds the conn query to Theorem 4.4's
// bound with no log n term: beyond the ρ search, a stored-center lookup
// costs exactly 3 reads (rank-directory word and entry, then the label) at
// every n, so mean reads per query stay flat as n grows 16×.
func TestOracleQueryReadsIndependentOfN(t *testing.T) {
	var means []float64
	for _, n := range []int{4096, 16384, 65536} {
		g := graph.RandomRegular(n, 3, 42)
		m, c := env(64)
		o := BuildOracle(c, graph.View{G: g, M: m}, 8, 7)
		sc := decomp.NewScratch()
		var reads, queries int64
		for v := int32(0); int(v) < n; v += 7 {
			qm, rm := asym.NewMeter(64), asym.NewMeter(64)
			o.QueryS(qm, nil, sc, v)
			s := o.D.RhoS(rm, nil, sc, v)
			if o.D.CenterIndex(asym.NewMeter(64), s) < 0 {
				t.Fatalf("n=%d: ρ(%d) = %d is not a stored center", n, v, s)
			}
			if extra := qm.Reads() - rm.Reads(); extra != 3 {
				t.Fatalf("n=%d: query(%d) read %d beyond its ρ search, want 3", n, v, extra)
			}
			reads += qm.Reads()
			queries++
		}
		means = append(means, float64(reads)/float64(queries))
	}
	if lo, hi := slices.Min(means), slices.Max(means); hi-lo >= 1.5 {
		t.Fatalf("mean reads per query span %.2f..%.2f across n, want a spread under 1.5", lo, hi)
	}
}

func TestOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := graph.RandomRegular(120, 3, seed)
		m, c := env(16)
		o := BuildOracle(c, graph.View{G: g, M: m}, 4, seed+3)
		qm := asym.NewMeter(16)
		got := make([]int32, g.N())
		for v := 0; v < g.N(); v++ {
			got[v] = o.Query(qm, nil, int32(v))
		}
		return samePartition(got, refLabels(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestOracleOnBoundedTransform(t *testing.T) {
	// §6: oracle on the degree-bounded transform answers queries for the
	// original unbounded-degree graph.
	g := graph.PowerLaw(300, 4, 61)
	b := graph.BoundDegree(g, 3)
	m, c := env(64)
	o := BuildOracle(c, graph.View{G: b.G, M: m}, 0, 63)
	qm := asym.NewMeter(64)
	ref := refLabels(g)
	got := make([]int32, g.N())
	for v := 0; v < g.N(); v++ {
		got[v] = o.Query(qm, nil, b.Rep(v))
	}
	if !samePartition(got, ref) {
		t.Fatal("oracle-on-transform partition mismatch")
	}
}

func TestDefaultK(t *testing.T) {
	if DefaultK(64) != 8 || DefaultK(1) != 2 || DefaultK(100) != 10 {
		t.Fatalf("DefaultK: %d %d %d", DefaultK(64), DefaultK(1), DefaultK(100))
	}
}

func TestOracleEmptyGraph(t *testing.T) {
	g := graph.FromEdges(3, nil)
	m, c := env(16)
	o := BuildOracle(c, graph.View{G: g, M: m}, 4, 1)
	qm := asym.NewMeter(16)
	// Three singletons: all differ.
	a, b2, c2 := o.Query(qm, nil, 0), o.Query(qm, nil, 1), o.Query(qm, nil, 2)
	if a == b2 || b2 == c2 || a == c2 {
		t.Fatalf("singleton labels collide: %d %d %d", a, b2, c2)
	}
}
