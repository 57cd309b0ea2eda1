package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// labelsOf queries the component label of every vertex through the public
// batch path.
func labelsOf(e *Engine) []int32 {
	n := e.Graph().N()
	qs := make([]Query, n)
	for v := 0; v < n; v++ {
		qs[v] = Query{Kind: KindComponent, U: int32(v)}
	}
	out := make([]int32, n)
	for i, r := range e.Do(qs) {
		out[i] = *r.Label
	}
	return out
}

// samePartitionServe checks that two labelings induce the same partition.
func samePartitionServe(a, b []int32) bool {
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

// assertEquivalent compares the dynamic engine's answers with a
// from-scratch engine over the same graph: boolean kinds must agree
// exactly, component labels as a partition.
func assertEquivalent(t *testing.T, dyn, fresh *Engine, seed uint64) {
	t.Helper()
	if !samePartitionServe(labelsOf(dyn), labelsOf(fresh)) {
		t.Fatal("component partitions diverge from from-scratch rebuild")
	}
	qs := mixedQueries(dyn.Graph(), 300, seed)
	got, want := dyn.Do(qs), fresh.Do(qs)
	for i := range qs {
		if qs[i].Kind == KindComponent {
			continue // compared partition-wise above
		}
		if !sameResult(got[i], want[i]) {
			t.Fatalf("%s: dynamic %+v, from-scratch %+v", describe(qs[i]), got[i], want[i])
		}
	}
}

func TestUpdateInsertionIncremental(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(12), 6) // 6 components, n=72
	e := New(g, Config{Omega: 16, Seed: 5})
	defer e.Close()

	add := [][2]int32{{0, 12}, {24, 36}, {11, 70}, {5, 5}}
	st, err := e.Update(Update{Add: add}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Applied || st.Epoch != 1 || st.Pending != 0 {
		t.Fatalf("status %+v", st)
	}
	if e.Epoch() != 1 {
		t.Fatalf("epoch %d", e.Epoch())
	}
	if e.Graph().M() != g.M()+len(add) {
		t.Fatalf("m=%d want %d", e.Graph().M(), g.M()+len(add))
	}

	stats := e.Stats()
	if stats.TotalRebuilds != 1 || stats.IncrementalRebuilds != 1 {
		t.Fatalf("rebuilds %d incremental %d", stats.TotalRebuilds, stats.IncrementalRebuilds)
	}
	rec := stats.Rebuilds[len(stats.Rebuilds)-1]
	if rec.Strategy != StrategyPatchedInsert || rec.AddedEdges != len(add) || rec.RemovedEdges != 0 {
		t.Fatalf("record %+v", rec)
	}
	// The adds merge components, so the deferrable bicc oracle cannot absorb
	// them as a no-op patch — it defers to the lazy rung instead of paying a
	// publish-path rebuild.
	if rec.Strategies["conn"] != StrategyPatchedInsert || rec.Strategies["bicc"] != StrategyLazy {
		t.Fatalf("per-oracle strategies %+v", rec.Strategies)
	}
	if stats.Strategies["conn"][StrategyPatchedInsert] != 1 || stats.Strategies["bicc"][StrategyLazy] != 1 {
		t.Fatalf("strategy counters %+v", stats.Strategies)
	}
	if stats.RebuildsAvoided != 1 {
		t.Fatalf("rebuilds avoided %d, want 1", stats.RebuildsAvoided)
	}
	// The write-savings claim: the incremental connectivity maintenance
	// must cost strictly fewer asymmetric writes than the full build of
	// the connectivity oracle over the same graph.
	fresh := New(e.Graph(), Config{Omega: 16, Seed: 5})
	defer fresh.Close()
	if rec.OracleCosts["conn"].Writes >= fresh.Stats().BuildCosts["conn"].Writes {
		t.Fatalf("incremental conn writes %d not below full build %d",
			rec.OracleCosts["conn"].Writes, fresh.Stats().BuildCosts["conn"].Writes)
	}
	assertEquivalent(t, e, fresh, 99)
}

func TestUpdateRemovalFullRebuild(t *testing.T) {
	// Lollipop: clique + path; every path edge is a bridge.
	g := graph.Lollipop(8, 8)
	e := New(g, Config{Omega: 16, Seed: 3})
	defer e.Close()
	n := int32(g.N())

	// Cut the path: the tail vertex disconnects.
	cut := [2]int32{n - 2, n - 1}
	st, err := e.Update(Update{Remove: [][2]int32{cut}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Applied || st.Epoch != 1 {
		t.Fatalf("status %+v", st)
	}
	r := e.Query(Query{Kind: KindConnected, U: 0, V: n - 1})
	if r.Err != "" || *r.Bool {
		t.Fatalf("tail still connected after bridge removal: %+v", r)
	}
	stats := e.Stats()
	rec := stats.Rebuilds[len(stats.Rebuilds)-1]
	// Removing a bridge genuinely splits the component: the deletion patch
	// must refuse (no replacement edge exists) and the ladder must step
	// down to a full rebuild of the conn oracle.
	if rec.Strategy != StrategyFull || rec.RemovedEdges != 1 {
		t.Fatalf("record %+v", rec)
	}
	if rec.Strategies["conn"] != StrategyFull {
		t.Fatalf("bridge removal conn strategy %q, want full (%+v)", rec.Strategies["conn"], rec.Strategies)
	}
	if stats.Strategies["conn"][StrategyFull] != 1 || stats.IncrementalRebuilds != 0 {
		t.Fatalf("counters %+v incremental=%d", stats.Strategies, stats.IncrementalRebuilds)
	}
	fresh := New(e.Graph(), Config{Omega: 16, Seed: 11})
	defer fresh.Close()
	assertEquivalent(t, e, fresh, 41)
}

// TestUpdateChainedBatches interleaves insertion-only and removal batches
// and checks equivalence with a from-scratch engine after every publish.
func TestUpdateChainedBatches(t *testing.T) {
	g := graph.GNM(80, 60, 7, false)
	e := New(g, Config{Omega: 16, Seed: 5})
	defer e.Close()
	rng := graph.NewRNG(13)
	n := g.N()

	for i := 0; i < 5; i++ {
		var u Update
		for j := 0; j < 6; j++ {
			u.Add = append(u.Add, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		if i%2 == 1 { // remove existing edges on odd batches
			es := e.Graph().Edges()
			u.Remove = append(u.Remove, es[rng.Intn(len(es))], es[rng.Intn(len(es))])
			// A duplicate pick may exceed the multiset; drop the second if so.
			if u.Remove[0] == u.Remove[1] &&
				e.Graph().EdgeMultiplicity(u.Remove[0][0], u.Remove[0][1]) < 2 {
				u.Remove = u.Remove[:1]
			}
		}
		st, err := e.Update(u, true)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if st.Epoch != int64(i+1) {
			t.Fatalf("batch %d: epoch %d", i, st.Epoch)
		}
		fresh := New(e.Graph(), Config{Omega: 16, Seed: 21})
		assertEquivalent(t, e, fresh, uint64(i)*7+1)
		fresh.Close()
	}
	st := e.Stats()
	if st.IncrementalRebuilds == 0 {
		t.Fatalf("no incremental rebuilds across %d batches", st.TotalRebuilds)
	}
	// The per-oracle counters partition the rebuilds: pure-insertion
	// batches patch-insert, removal batches either patch-delete (a
	// replacement edge existed) or step down to full (a split) — never
	// anything else, and they must add up.
	conn := st.Strategies["conn"]
	if conn[StrategyPatchedInsert] != 3 {
		t.Fatalf("conn patched-insert %d, want 3 (counters %+v)", conn[StrategyPatchedInsert], conn)
	}
	if conn[StrategyPatchedDelete]+conn[StrategyFull] != 2 || conn[StrategyRebased] != 0 {
		t.Fatalf("conn removal-batch counters %+v, want patch-delete+full = 2", conn)
	}
	// bicc never rebuilds on the publish path: every batch is deferred
	// lazily or absorbed as a provable no-op patch (the equivalence check
	// after each publish queries bicc kinds, so each deferral is followed by
	// one query-triggered build, keeping the instance fresh for the next
	// batch's patch attempt).
	bicc := st.Strategies["bicc"]
	if bicc[StrategyFull] != 0 || bicc[StrategyRebased] != 0 {
		t.Fatalf("bicc rebuilt on the publish path: %+v", bicc)
	}
	if got := bicc[StrategyLazy] + bicc[StrategyPatchedInsert] + bicc[StrategyPatchedDelete]; got != st.TotalRebuilds {
		t.Fatalf("bicc counters %+v, want %d deferred/patched", bicc, st.TotalRebuilds)
	}
	if st.LazyRebuilds != bicc[StrategyLazy] {
		t.Fatalf("lazy rebuilds %d, want %d (every deferral was queried)", st.LazyRebuilds, bicc[StrategyLazy])
	}
}

// TestUpdateConcurrentQueries hammers Do from many goroutines while update
// batches publish snapshots — the query-during-rebuild race surface. Run
// under -race in CI. Every valid query must be answered without error at
// every epoch.
func TestUpdateConcurrentQueries(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(10), 8)
	e := New(g, Config{Omega: 16, Seed: 5})
	defer e.Close()
	n := g.N()

	var stop atomic.Bool
	var failures atomic.Int64
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := graph.NewRNG(seed)
			for !stop.Load() {
				qs := make([]Query, 64)
				for i := range qs {
					qs[i] = Query{
						Kind: Kinds[rng.Intn(len(Kinds))],
						U:    int32(rng.Intn(n)),
						V:    int32(rng.Intn(n)),
					}
				}
				for _, r := range e.Do(qs) {
					if r.Err != "" {
						failures.Add(1)
					}
				}
				answered.Add(int64(len(qs)))
			}
		}(uint64(100 + c))
	}

	rng := graph.NewRNG(9)
	for i := 0; i < 8; i++ {
		u := Update{Add: [][2]int32{
			{int32(rng.Intn(n)), int32(rng.Intn(n))},
			{int32(rng.Intn(n)), int32(rng.Intn(n))},
		}}
		if i%3 == 2 {
			es := e.Graph().Edges()
			u.Remove = [][2]int32{es[rng.Intn(len(es))]}
		}
		if _, err := e.Update(u, true); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	stop.Store(true)
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d query errors during churn (%d answered)", failures.Load(), answered.Load())
	}
	if e.Epoch() != 8 {
		t.Fatalf("epoch %d want 8", e.Epoch())
	}
}

func TestUpdateValidation(t *testing.T) {
	g := graph.Path(4) // edges (0,1),(1,2),(2,3)
	e := New(g, Config{Omega: 8, Seed: 1})

	for name, u := range map[string]Update{
		"empty":             {},
		"add out of range":  {Add: [][2]int32{{0, 4}}},
		"add negative":      {Add: [][2]int32{{-1, 1}}},
		"remove missing":    {Remove: [][2]int32{{0, 2}}},
		"remove out of rng": {Remove: [][2]int32{{0, 9}}},
		"double remove":     {Remove: [][2]int32{{0, 1}, {1, 0}}},
	} {
		if _, err := e.Update(u, true); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// A rejected batch stages nothing: the single copy is still removable.
	if _, err := e.Update(Update{Remove: [][2]int32{{0, 1}}}, true); err != nil {
		t.Fatalf("valid removal after rejected batches: %v", err)
	}
	// Staged-delta awareness without waiting: the same copy cannot be
	// removed twice across batches, wherever the rebuild happens to be.
	if _, err := e.Update(Update{Remove: [][2]int32{{1, 2}}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(Update{Remove: [][2]int32{{1, 2}}}, false); err == nil {
		t.Fatal("same copy removed twice across staged batches")
	}
	// And an edge added in a staged batch is removable before it publishes.
	if _, err := e.Update(Update{Add: [][2]int32{{0, 3}}}, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Update(Update{Remove: [][2]int32{{3, 0}}}, true); err != nil {
		t.Fatalf("staged add not removable: %v", err)
	}

	e.Close()
	if _, err := e.Update(Update{Add: [][2]int32{{0, 1}}}, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: %v", err)
	}
	e.Close() // idempotent
}

func TestHTTPUpdateRoundTrip(t *testing.T) {
	g := graph.Disconnected(graph.Path(5), 2) // two path components
	_, ts := newTestServer(t, g)

	// Before: 0 and 5 are in different components.
	var r Result
	postJSON(t, ts.URL+"/query", Query{Kind: KindConnected, U: 0, V: 5}, &r)
	if *r.Bool {
		t.Fatal("components connected before update")
	}

	var ur UpdateResponse
	code := postJSON(t, ts.URL+"/update", UpdateRequest{Add: [][2]int32{{0, 5}}, Wait: true}, &ur)
	if code != http.StatusOK || !ur.Applied || ur.Epoch != 1 || ur.Seq != 1 {
		t.Fatalf("code=%d resp=%+v", code, ur)
	}
	postJSON(t, ts.URL+"/query", Query{Kind: KindConnected, U: 0, V: 5}, &r)
	if !*r.Bool {
		t.Fatal("components not connected after update")
	}

	var info Info
	getJSON(t, ts.URL+"/info", &info)
	if info.Epoch != 1 || info.GraphM != g.M()+1 {
		t.Fatalf("info %+v", info)
	}
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	if st.Epoch != 1 || st.TotalRebuilds != 1 || st.IncrementalRebuilds != 1 ||
		st.PendingUpdates != 0 || len(st.Rebuilds) != 1 {
		t.Fatalf("stats epoch=%d rebuilds=%d/%d pending=%d records=%d",
			st.Epoch, st.IncrementalRebuilds, st.TotalRebuilds, st.PendingUpdates, len(st.Rebuilds))
	}
	if st.Rebuilds[0].Strategy != StrategyPatchedInsert || st.Rebuilds[0].OracleCosts["conn"].Work() == 0 {
		t.Fatalf("rebuild record %+v", st.Rebuilds[0])
	}
	if st.Rebuilds[0].Strategies["conn"] != StrategyPatchedInsert {
		t.Fatalf("rebuild record strategies %+v", st.Rebuilds[0].Strategies)
	}
	if st.Strategies["conn"][StrategyPatchedInsert] != 1 {
		t.Fatalf("strategy counters %+v", st.Strategies)
	}

	// Remove the same edge again: full rebuild, epoch 2.
	code = postJSON(t, ts.URL+"/update", UpdateRequest{Remove: [][2]int32{{0, 5}}, Wait: true}, &ur)
	if code != http.StatusOK || ur.Epoch != 2 {
		t.Fatalf("code=%d resp=%+v", code, ur)
	}
	postJSON(t, ts.URL+"/query", Query{Kind: KindConnected, U: 0, V: 5}, &r)
	if *r.Bool {
		t.Fatal("still connected after removal")
	}
}

func TestHTTPUpdateErrors(t *testing.T) {
	g := graph.Path(4)
	_, ts := newTestServer(t, g)

	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"GET", func() (*http.Response, error) { return http.Get(ts.URL + "/update") }, http.StatusMethodNotAllowed},
		{"bad JSON", func() (*http.Response, error) {
			return http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte("{")))
		}, http.StatusBadRequest},
		{"empty", func() (*http.Response, error) {
			return http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte("{}")))
		}, http.StatusBadRequest},
		{"out of range", func() (*http.Response, error) {
			return http.Post(ts.URL+"/update", "application/json",
				bytes.NewReader([]byte(fmt.Sprintf(`{"add":[[0,%d]]}`, g.N()))))
		}, http.StatusBadRequest},
		{"remove missing", func() (*http.Response, error) {
			return http.Post(ts.URL+"/update", "application/json", bytes.NewReader([]byte(`{"remove":[[0,3]]}`)))
		}, http.StatusBadRequest},
		{"too many edges", func() (*http.Response, error) {
			// MaxUpdateEdges+1 syntactically valid pairs, well under the
			// byte limit: the count cap must trip.
			var b bytes.Buffer
			b.WriteString(`{"add":[[0,1]`)
			b.Write(bytes.Repeat([]byte(`,[0,1]`), MaxUpdateEdges))
			b.WriteString(`]}`)
			return http.Post(ts.URL+"/update", "application/json", &b)
		}, http.StatusRequestEntityTooLarge},
		{"oversized body", func() (*http.Response, error) {
			body := append([]byte(`{"add":[[0,1]],"pad":"`),
				bytes.Repeat([]byte("x"), maxUpdateBytes+1)...)
			body = append(body, []byte(`"}`)...)
			return http.Post(ts.URL+"/update", "application/json", bytes.NewReader(body))
		}, http.StatusRequestEntityTooLarge},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: code=%d want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
