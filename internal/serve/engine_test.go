package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/decomp"
	"repro/internal/graph"
)

// mixedQueries generates nq queries cycling through every kind, with vertex
// pairs drawn from the graph (some adjacent pairs so bridge queries hit
// real edges, some random pairs).
func mixedQueries(g *graph.Graph, nq int, seed uint64) []Query {
	rng := graph.NewRNG(seed)
	n := g.N()
	edges := g.Edges()
	qs := make([]Query, nq)
	for i := range qs {
		kind := Kinds[i%len(Kinds)]
		var u, v int32
		if (kind == KindBridge || kind == KindBiconnected) && len(edges) > 0 && i%2 == 0 {
			e := edges[rng.Intn(len(edges))]
			u, v = e[0], e[1]
		} else {
			u, v = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		qs[i] = Query{Kind: kind, U: u, V: v}
	}
	return qs
}

// direct answers q with single-threaded oracle calls on a caller-owned
// meter, mirroring Engine.answer without any of the batching machinery.
func direct(e *Engine, m *asym.Meter, sym *asym.SymTracker, q Query) Result {
	var res Result
	switch q.Kind {
	case KindConnected:
		v := e.Conn().Connected(m, sym, q.U, q.V)
		res.Bool = &v
	case KindComponent:
		v := e.Conn().Query(m, sym, q.U)
		res.Label = &v
	case KindBridge:
		v := e.Bicc().IsBridge(m, sym, q.U, q.V)
		res.Bool = &v
	case KindArticulation:
		v := e.Bicc().IsArticulation(m, sym, q.U)
		res.Bool = &v
	case KindBiconnected:
		v := e.Bicc().Biconnected(m, sym, q.U, q.V)
		res.Bool = &v
	case KindTwoEdgeConnected:
		v := e.Bicc().OneEdgeConnected(m, sym, q.U, q.V)
		res.Bool = &v
	}
	return res
}

func sameResult(a, b Result) bool {
	if (a.Bool == nil) != (b.Bool == nil) || (a.Label == nil) != (b.Label == nil) {
		return false
	}
	if a.Bool != nil && *a.Bool != *b.Bool {
		return false
	}
	if a.Label != nil && *a.Label != *b.Label {
		return false
	}
	return a.Err == b.Err
}

func describe(q Query) string {
	return fmt.Sprintf("%s(%d,%d)", q.Kind, q.U, q.V)
}

// testGraphs returns the instance set the equivalence tests run over: a
// connected regular graph, a disconnected sparse G(n,m) with small
// components (exercising the implicit-center paths), and a grid (bridges
// and articulation points everywhere after edge removal is not needed —
// the 2D grid is 2-connected in the interior but its corners exercise
// local-graph boundaries).
func testGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"regular":      graph.RandomRegular(400, 3, 11),
		"disconnected": graph.GNM(300, 320, 13, false),
		"grid":         graph.Grid2D(16, 24),
	}
}

// TestBatchMatchesDirect is the core equivalence check: batched concurrent
// answers must be identical to single-threaded direct oracle calls, and so
// must the charged costs — per kind, the direct calls' summed cost plus one
// answer write per query. The batch runs cold, then again warm, where
// result-table and cluster-cache hits replay the charges of their fills.
func TestBatchMatchesDirect(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			e := New(g, Config{Omega: 16, Seed: 5})
			defer e.Close()
			qs := mixedQueries(g, 2000, 17)
			want, wantStats := referenceDo(t, e, qs)
			prev := e.Stats()
			for _, pass := range []string{"cold", "warm"} {
				got := e.Do(qs)
				for i, q := range qs {
					if !sameResult(got[i], want[i]) {
						t.Fatalf("%s query %d %s: batch=%+v direct=%+v", pass, i, describe(q), got[i], want[i])
					}
				}
				st := e.Stats()
				for _, k := range Kinds {
					w := wantStats[string(k)]
					gotCount := st.Queries[string(k)].Count - prev.Queries[string(k)].Count
					gotCost := st.Queries[string(k)].Cost.Sub(prev.Queries[string(k)].Cost)
					if gotCount != w.Count || gotCost != w.Cost {
						t.Fatalf("%s %s: batch charged %d queries %+v, direct %d queries %+v", pass, k, gotCount, gotCost, w.Count, w.Cost)
					}
				}
				if pass == "warm" && st.ResultCache.Hits == prev.ResultCache.Hits {
					t.Fatal("warm pass never hit the result table")
				}
				prev = st
			}
		})
	}
}

// TestScratchPathMatchesDirect checks, per query, that the scratch-taking
// oracle calls the engine's answer path makes (ConnectedS, QueryS,
// IsBridgeS, ...) return the plain calls' answer and charge the same cost
// and symmetric high-water. It runs twice: once with nil scratch and no
// cluster cache, once reusing one conn scratch, one bicc scratch and one
// cluster cache across every query, so the warm scratch and the cache hits
// (filled earlier in the pass, replayed later) are held to the paper
// path's charges too.
func TestScratchPathMatchesDirect(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(15), 4)
	e := New(g, Config{Omega: 16, Seed: 7})
	defer e.Close()
	co, bo := e.Conn(), e.Bicc()
	omega := e.Omega()

	for _, warm := range []bool{false, true} {
		var csc *decomp.Scratch
		var bsc *bicc.Scratch
		var cc *bicc.ClusterCache
		if warm {
			csc, bsc, cc = decomp.NewScratch(), bicc.NewScratch(), bicc.NewClusterCache(0)
		}
		rng := graph.NewRNG(3)
		n := g.N()
		for i := 0; i < 500; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			for _, tc := range []struct {
				kind          Kind
				scratch, want func(*asym.Meter, *asym.SymTracker) int32
			}{
				{KindConnected,
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(co.ConnectedS(m, s, csc, u, v)) },
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(co.Connected(m, s, u, v)) }},
				{KindComponent,
					func(m *asym.Meter, s *asym.SymTracker) int32 { return co.QueryS(m, s, csc, u) },
					func(m *asym.Meter, s *asym.SymTracker) int32 { return co.Query(m, s, u) }},
				{KindBridge,
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.IsBridgeS(m, s, bsc, cc, u, v)) },
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.IsBridge(m, s, u, v)) }},
				{KindArticulation,
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.IsArticulationS(m, s, bsc, cc, u)) },
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.IsArticulation(m, s, u)) }},
				{KindBiconnected,
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.BiconnectedS(m, s, bsc, cc, u, v)) },
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.Biconnected(m, s, u, v)) }},
				{KindTwoEdgeConnected,
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.OneEdgeConnectedS(m, s, bsc, cc, u, v)) },
					func(m *asym.Meter, s *asym.SymTracker) int32 { return b2i(bo.OneEdgeConnected(m, s, u, v)) }},
			} {
				sm, dm := asym.NewMeter(omega), asym.NewMeter(omega)
				ssym, dsym := asym.NewSymTracker(0), asym.NewSymTracker(0)
				got, want := tc.scratch(sm, ssym), tc.want(dm, dsym)
				if got != want {
					t.Fatalf("warm=%v %s(%d,%d): scratch path %d, direct %d", warm, tc.kind, u, v, got, want)
				}
				if sm.Snapshot() != dm.Snapshot() {
					t.Fatalf("warm=%v %s(%d,%d): scratch path cost %v != direct cost %v", warm, tc.kind, u, v, sm.Snapshot(), dm.Snapshot())
				}
				if ssym.HighWater() != dsym.HighWater() {
					t.Fatalf("warm=%v %s(%d,%d): scratch path sym high-water %d != direct %d", warm, tc.kind, u, v, ssym.HighWater(), dsym.HighWater())
				}
			}
		}
		if warm {
			if hits, _, _ := cc.Stats(); hits == 0 {
				t.Fatal("repeated bicc queries never hit the cluster cache")
			}
		}
	}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// TestConcurrentDo runs many Do batches from concurrent goroutines (the
// -race target of the serving layer) and checks every answer against a
// single-threaded reference computed up front.
func TestConcurrentDo(t *testing.T) {
	g := graph.RandomRegular(300, 3, 23)
	e := New(g, Config{Omega: 16, Seed: 5})

	const goroutines = 8
	const perBatch = 400
	batches := make([][]Query, goroutines)
	want := make([][]Result, goroutines)
	m := asym.NewMeter(e.Omega())
	sym := asym.NewSymTracker(0)
	for i := range batches {
		batches[i] = mixedQueries(g, perBatch, uint64(100+i))
		want[i] = make([]Result, perBatch)
		for j, q := range batches[i] {
			want[i][j] = direct(e, m, sym, q)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for i := range batches {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := e.Do(batches[i])
			for j := range got {
				if !sameResult(got[j], want[i][j]) {
					errs <- fmt.Sprintf("goroutine %d query %d %s: got %+v want %+v",
						i, j, describe(batches[i][j]), got[j], want[i][j])
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	st := e.Stats()
	if st.TotalQueries != goroutines*perBatch {
		t.Errorf("TotalQueries = %d, want %d", st.TotalQueries, goroutines*perBatch)
	}
	for _, k := range Kinds {
		ks := st.Queries[string(k)]
		if ks.Count == 0 {
			t.Errorf("kind %s: zero count", k)
		}
		if ks.Cost.Reads == 0 || ks.Cost.Work() == 0 {
			t.Errorf("kind %s: zero reads/work: %+v", k, ks.Cost)
		}
		if ks.Cost.Writes != ks.Count {
			t.Errorf("kind %s: writes = %d, want one per answered query (%d)",
				k, ks.Cost.Writes, ks.Count)
		}
	}
}

// TestWorkerIsolation checks the per-worker metering invariant: the
// aggregate per-kind cost of a batch equals the cost of the same queries
// answered single-threaded (query costs are deterministic, so any
// cross-worker interference or double counting shows up as a mismatch).
func TestWorkerIsolation(t *testing.T) {
	g := graph.RandomRegular(200, 3, 29)
	qs := mixedQueries(g, 1000, 31)

	batched := New(g, Config{Omega: 16, Seed: 5, Workers: 4})
	batched.Do(qs)

	single := New(g, Config{Omega: 16, Seed: 5, Workers: 1})
	single.Do(qs)

	bs, ss := batched.Stats(), single.Stats()
	for _, k := range Kinds {
		b, s := bs.Queries[string(k)], ss.Queries[string(k)]
		if b.Cost != s.Cost || b.Count != s.Count {
			t.Errorf("kind %s: 4-worker cost %+v (count %d) != 1-worker cost %+v (count %d)",
				k, b.Cost, b.Count, s.Cost, s.Count)
		}
	}
}

// TestQueryValidation covers the malformed-query paths.
func TestQueryValidation(t *testing.T) {
	g := graph.RandomRegular(50, 3, 37)
	e := New(g, Config{Omega: 16, Seed: 5})

	cases := []Query{
		{Kind: "nope", U: 0, V: 1},
		{Kind: KindConnected, U: -1, V: 1},
		{Kind: KindConnected, U: 0, V: 99},
		{Kind: KindComponent, U: 50},
		{Kind: KindBridge, U: 0, V: -3},
	}
	for _, q := range cases {
		if res := e.Query(q); res.Err == "" {
			t.Errorf("%s: want error, got %+v", describe(q), res)
		}
	}
	// Single-vertex kinds ignore V entirely.
	if res := e.Query(Query{Kind: KindComponent, U: 3, V: 9999}); res.Err != "" {
		t.Errorf("component with out-of-range V should succeed, got %q", res.Err)
	}
	st := e.Stats()
	if st.Queries[string(KindConnected)].Errors != 2 {
		t.Errorf("connected errors = %d, want 2", st.Queries[string(KindConnected)].Errors)
	}
}

// TestEmptyAndTinyBatches covers the degenerate dispatch shapes.
func TestEmptyAndTinyBatches(t *testing.T) {
	g := graph.Grid2D(4, 4)
	e := New(g, Config{Omega: 4, Seed: 5})
	if got := e.Do(nil); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
	got := e.Do([]Query{{Kind: KindComponent, U: 0}})
	if len(got) != 1 || got[0].Label == nil {
		t.Fatalf("single-query batch: %+v", got)
	}
}

func BenchmarkServeBatch(b *testing.B) {
	g := graph.RandomRegular(1<<12, 3, 41)
	e := New(g, Config{Omega: 64, Seed: 5})
	qs := mixedQueries(g, 4096, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Do(qs)
	}
	st := e.Stats()
	var reads, work int64
	for _, ks := range st.Queries {
		reads += ks.Cost.Reads
		work += ks.Cost.Work()
	}
	b.ReportMetric(float64(reads)/float64(st.TotalQueries), "reads/query")
	b.ReportMetric(float64(work)/float64(st.TotalQueries), "work/query")
}

// BenchmarkEngineNew times an engine's boot build on a uniform 3-regular
// graph (n = 8192, ω = 64, seed 7): one implicit decomposition, then the
// conn and bicc oracles over it in parallel. writes/op is the summed
// build_costs writes. Compare -cpu 1,2 (make bench-build): ns/op should
// fall with the processor count, while writes/op must not move.
func BenchmarkEngineNew(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 42)
	b.ReportAllocs()
	var writes int64
	for i := 0; i < b.N; i++ {
		e := New(g, Config{Omega: 64, Seed: 7})
		b.StopTimer()
		for _, c := range e.Stats().BuildCosts {
			writes += c.Writes
		}
		e.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}

// BenchmarkPatchedUpdate times one patched publish, Engine.Update with
// wait, on a uniform 3-regular graph (ω = 64, seed 7) with re-basing off:
// even ops add 16 seeded edges and odd ops remove them again, so conn
// stays on its patched-insert and patched-delete rungs. A publish should
// cost about the same at both sizes: it copies block tables of n/32
// pointers and the blocks the batch touches, not whole structures.
func BenchmarkPatchedUpdate(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := graph.RandomRegular(n, 3, 42)
			e := New(g, Config{Omega: 64, Seed: 7, RebaseEvery: -1})
			defer e.Close()
			rng := graph.NewRNG(1)
			var batch [][2]int32
			for len(batch) < 16 {
				if u, v := int32(rng.Intn(n)), int32(rng.Intn(n)); u != v {
					batch = append(batch, [2]int32{u, v})
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := Update{Add: batch}
				if i%2 == 1 {
					u = Update{Remove: batch}
				}
				if _, err := e.Update(u, true); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/update")
		})
	}
}
