package serve

import (
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestConnFastPathZeroAlloc is the runtime ground truth behind the
// noallocpath static rule: the conn query path — Engine.answer through
// conn's ConnectedS/QueryS with a warmed worker and label arena —
// performs zero allocations per query (GOMAXPROCS=1, omega 64, seed 7);
// whatever a batch allocates beyond that is amortized per-batch overhead
// (TestDoBatchAllocBound).
func TestConnFastPathZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := graph.GNM(2048, 3072, 7, false)
	e := New(g, Config{Omega: 64, Seed: 7, Workers: 1})
	defer e.Close()

	s := e.snap.Load()
	w := e.getWorker()
	defer e.putWorker(w)
	labels := make([]int32, 0, 1)
	queries := []Query{
		{Kind: KindComponent, U: 3},
		{Kind: KindComponent, U: 999},
		{Kind: KindConnected, U: 3, V: 999},
		{Kind: KindConnected, U: 0, V: 1},
	}
	// Warm the scratch (first searches grow the BFS workspace to its
	// high-water mark; growth is amortized and off the steady state).
	for _, q := range queries {
		labels = labels[:0]
		if r := e.answer(s, w, q, &labels); r.Err != "" {
			t.Fatalf("warmup %+v: %s", q, r.Err)
		}
	}
	for _, q := range queries {
		q := q
		allocs := testing.AllocsPerRun(200, func() {
			labels = labels[:0]
			if r := e.answer(s, w, q, &labels); r.Err != "" {
				t.Fatalf("%+v: %s", q, r.Err)
			}
		})
		if allocs != 0 {
			t.Errorf("conn fast path %+v: %.2f allocs/query, want 0", q, allocs)
		}
	}
}

// TestBiccWarmPathAllocCeiling pins the warmed biconnectivity query path:
// once every cluster's local graph is cached (and with a stream of
// never-repeating queries, so the result cache cannot answer and every
// query exercises the oracle through the cluster cache), the fast path
// must stay at or under 2 allocations per query.
func TestBiccWarmPathAllocCeiling(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Connected cycle-plus-chords graph: no small-component path (which
	// deliberately stays allocating), rich biconnectivity structure.
	const n = 2048
	var edges [][2]int32
	for i := int32(0); i < n; i++ {
		edges = append(edges, [2]int32{i, (i + 1) % n})
		if i%3 == 0 {
			edges = append(edges, [2]int32{i, (i + 97) % n})
		}
	}
	g := graph.FromEdges(n, edges)
	e := New(g, Config{Omega: 64, Seed: 7, Workers: 1})
	defer e.Close()

	s := e.snap.Load()
	kinds := []Kind{KindBridge, KindArticulation, KindBiconnected, KindTwoEdgeConnected}
	// Never-repeating (kind, u, v) triples: the pair (u, v) is a bijection
	// of the cursor below n², so the result cache misses on every query and
	// only the cluster cache serves the warm path.
	queryAt := func(i int) Query {
		return Query{Kind: kinds[i%4], U: int32((i / n) % n), V: int32(i % n)}
	}
	cursor := 0
	runBatch := func(batch int) {
		w := e.getWorker()
		labels := make([]int32, 0, batch)
		for j := 0; j < batch; j++ {
			if r := e.answer(s, w, queryAt(cursor), &labels); r.Err != "" {
				t.Fatalf("query %d: %s", cursor, r.Err)
			}
			cursor++
		}
		w.mergeInto(e)
		e.putWorker(w)
	}
	// Warm pass: every vertex appears as an endpoint, so every cluster's
	// local graph is filled (each cluster is its own center's cluster).
	for cursor < 3*n {
		runBatch(256)
	}
	const batch = 256
	allocs := testing.AllocsPerRun(20, func() { runBatch(batch) })
	perQuery := allocs / batch
	if perQuery > 2 {
		t.Errorf("warmed bicc path: %.1f allocs/batch = %.2f allocs/query, want <= 2", allocs, perQuery)
	}
}

// TestDoBatchAllocBound pins the amortized per-query allocation cost of the
// public batch path: a Do call allocates its result slice, one label arena
// per chunk, and pool bookkeeping — constant per batch — so per query it
// must stay far below one allocation (~0.03 at batch size 256).
func TestDoBatchAllocBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	g := graph.GNM(2048, 3072, 7, false)
	e := New(g, Config{Omega: 64, Seed: 7, Workers: 1})
	defer e.Close()

	const batch = 256
	qs := make([]Query, batch)
	for i := range qs {
		if i%2 == 0 {
			qs[i] = Query{Kind: KindComponent, U: int32(i % g.N())}
		} else {
			qs[i] = Query{Kind: KindConnected, U: int32(i % g.N()), V: int32((i * 7) % g.N())}
		}
	}
	for i := 0; i < 3; i++ { // warm pool workers and scratches
		e.Do(qs)
	}
	allocs := testing.AllocsPerRun(50, func() { e.Do(qs) })
	perQuery := allocs / batch
	if perQuery > 0.1 {
		t.Errorf("Do batch: %.1f allocs/batch = %.3f allocs/query, want <= 0.1", allocs, perQuery)
	}
}

// TestBatchCodecZeroAlloc is the runtime ground truth behind the
// //wec:noalloc marks on the /batch codec: with the query slice and the
// response buffer warm (as the handler's pooled ones are), decoding the
// canonical http-conn body and encoding its answers allocates nothing.
func TestBatchCodecZeroAlloc(t *testing.T) {
	_, rs, body := httpConnBatch(1)
	var req BatchRequest
	if err := decodeBatchRequest(body, &req); err != nil {
		t.Fatal(err)
	}
	buf := appendBatchResponse(nil, rs)
	allocs := testing.AllocsPerRun(100, func() {
		req = BatchRequest{Queries: req.Queries[:0]}
		if err := decodeBatchRequest(body, &req); err != nil {
			t.Fatal(err)
		}
		buf = appendBatchResponse(buf[:0], rs)
	})
	if allocs != 0 {
		t.Errorf("warm /batch decode + encode: %.1f allocs, want 0", allocs)
	}
}
