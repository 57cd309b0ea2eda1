package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/bicc"
	"repro/internal/graph"
)

// Tests of the deferred (lazy) bicc rebuild path: long-churn equivalence
// with from-scratch builds, the bounded-staleness answer contract, the
// single-flight build guarantee, and lazy boot.

// biccProbe returns a strict query batch covering every bicc-family kind
// for a few vertex pairs — issuing it forces a deferred slot to build.
func biccProbe(n int, seed uint64) []Query {
	rng := graph.NewRNG(seed)
	var qs []Query
	for j := 0; j < 8; j++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		qs = append(qs,
			Query{Kind: KindBridge, U: u, V: v},
			Query{Kind: KindArticulation, U: u},
			Query{Kind: KindBiconnected, U: u, V: v},
			Query{Kind: KindTwoEdgeConnected, U: u, V: v},
		)
	}
	return qs
}

// TestLazyChurnEquivalence drives hundreds of mixed update batches through
// the engine, forcing the deferred bicc slot to build at every epoch (each
// batch is followed by strict bicc-family queries), and checks the full
// answer surface against a from-scratch engine over the same graph. This is
// the end-to-end correctness argument for the lazy rung: deferral plus
// query-triggered rebuild must be answer-for-answer identical to the old
// rebuild-every-epoch engine.
func TestLazyChurnEquivalence(t *testing.T) {
	const n = 48
	batches := 500
	if testing.Short() {
		batches = 100
	}
	g := graph.GNM(n, 72, 11, false)
	e := New(g, Config{Omega: 16, Seed: 5})
	defer e.Close()
	rng := graph.NewRNG(17)

	lazySeen := false
	for b := 0; b < batches; b++ {
		var u Update
		for j := 0; j < 3; j++ {
			u.Add = append(u.Add, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
		}
		if b%2 == 1 {
			es := e.Graph().Edges()
			u.Remove = append(u.Remove, es[rng.Intn(len(es))])
		}
		if _, err := e.Update(u, true); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		st := e.Stats()
		switch st.Rebuilds[len(st.Rebuilds)-1].Strategies["bicc"] {
		case StrategyLazy:
			lazySeen = true
		case StrategyFull, StrategyRebased:
			t.Fatalf("batch %d: bicc rebuilt on the publish path: %+v",
				b, st.Rebuilds[len(st.Rebuilds)-1].Strategies)
		}
		// Force the deferred slot to build, then compare every kind against
		// a from-scratch engine over the same graph. Deep comparison every
		// 25th batch (a fresh engine build per batch would dominate the
		// test); the probe alone still validates the build path each epoch.
		res := e.Do(biccProbe(n, uint64(b)))
		for i, r := range res {
			if r.Err != "" {
				t.Fatalf("batch %d: probe %d: %s", b, i, r.Err)
			}
		}
		if b%25 == 0 || b == batches-1 {
			fresh := New(e.Graph(), Config{Omega: 16, Seed: 21})
			assertEquivalent(t, e, fresh, uint64(b)*13+1)
			fresh.Close()
		}
	}
	if !lazySeen {
		t.Fatal("workload never exercised the lazy rung")
	}
	st := e.Stats()
	if st.LazyRebuilds == 0 {
		t.Fatal("no query-triggered bicc build was recorded")
	}
	if st.OracleEpochs["bicc"] != st.Epoch {
		t.Fatalf("bicc epoch %d after forced build, want %d", st.OracleEpochs["bicc"], st.Epoch)
	}
}

// TestBoundedStalenessAnswers pins the bounded contract: while the bicc
// slot is deferred, a bounded query answers from the last-built instance —
// matching a reference engine over the OLD graph — and reports that
// instance's built epoch; it must not trigger the deferred build. A strict
// query then builds and answers for the new graph.
func TestBoundedStalenessAnswers(t *testing.T) {
	// Two cycles: vertices 0..7 and 8..15. The update bridges them, which
	// changes bridge answers on the connecting edge and keeps the patch
	// predicates from absorbing the batch.
	g := graph.Disconnected(graph.Cycle(8), 2)
	e := New(g, Config{Omega: 16, Seed: 5})
	defer e.Close()
	ref := New(g, Config{Omega: 16, Seed: 9}) // frozen at the old graph
	defer ref.Close()

	if _, err := e.Update(Update{Add: [][2]int32{{0, 8}}}, true); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Rebuilds[len(st.Rebuilds)-1].Strategies["bicc"] != StrategyLazy {
		t.Fatalf("merging insertion not deferred: %+v", st.Rebuilds[len(st.Rebuilds)-1].Strategies)
	}
	if st.OracleEpochs["bicc"] != 0 || st.Epoch != 1 {
		t.Fatalf("epochs: bicc=%d published=%d, want 0/1", st.OracleEpochs["bicc"], st.Epoch)
	}

	// Bounded answers == the old graph's answers, tagged with epoch 0.
	qs := biccProbe(g.N(), 3)
	for i := range qs {
		qs[i].Staleness = StalenessBounded
	}
	got, want := e.Do(qs), ref.Do(qs)
	for i := range qs {
		if got[i].Err != "" || want[i].Err != "" {
			t.Fatalf("probe %d errored: %q / %q", i, got[i].Err, want[i].Err)
		}
		if *got[i].Bool != *want[i].Bool {
			t.Fatalf("bounded %s(%d,%d) = %v, old-graph reference %v",
				qs[i].Kind, qs[i].U, qs[i].V, *got[i].Bool, *want[i].Bool)
		}
		if got[i].Epoch != 0 {
			t.Fatalf("bounded answer tagged epoch %d, want 0", got[i].Epoch)
		}
	}
	if st := e.Stats(); st.LazyRebuilds != 0 {
		t.Fatalf("bounded queries triggered %d builds, want 0", st.LazyRebuilds)
	}

	// Strict now builds and answers for the new graph: (0,8) is a bridge.
	r := e.Query(Query{Kind: KindBridge, U: 0, V: 8})
	if r.Err != "" || !*r.Bool {
		t.Fatalf("strict bridge(0,8) after merge: %+v", r)
	}
	st = e.Stats()
	if st.LazyRebuilds != 1 || st.OracleEpochs["bicc"] != 1 {
		t.Fatalf("after strict query: lazy=%d bicc epoch=%d, want 1/1", st.LazyRebuilds, st.OracleEpochs["bicc"])
	}
	// Bounded at a fresh (built) slot reports the snapshot epoch.
	rb := e.Query(Query{Kind: KindBridge, U: 0, V: 8, Staleness: StalenessBounded})
	if rb.Err != "" || !*rb.Bool || rb.Epoch != 1 {
		t.Fatalf("bounded after build: %+v, want bridge=true epoch=1", rb)
	}
	// Conn-family kinds never defer; their bounded answers are just the
	// current snapshot's, tagged with its epoch.
	rc := e.Query(Query{Kind: KindConnected, U: 0, V: 8, Staleness: StalenessBounded})
	if rc.Err != "" || !*rc.Bool || rc.Epoch != 1 {
		t.Fatalf("bounded connected: %+v", rc)
	}
	// An unknown staleness value is a per-query error, not a panic.
	if r := e.Query(Query{Kind: KindBridge, U: 0, V: 1, Staleness: "eventual"}); r.Err == "" {
		t.Fatal("invalid staleness accepted")
	}
}

// TestBoundedStrictSameKeyOneChunk interleaves bounded and strict queries
// for the same (kind, u, v) inside one chunk of one Do batch against a
// deferred bicc slot, on keys whose answers differ between the old and the
// new graph. Bounded answers before the first strict query come from the
// stale instance (epoch 0); the strict query builds, and every later answer
// is the new graph's (bounded ones tagged epoch 1). The result table keys on
// the resolved oracle's built epoch, so no answer may leak across the two.
func TestBoundedStrictSameKeyOneChunk(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(8), 2)
	e := New(g, Config{Omega: 16, Seed: 5, Workers: 1})
	defer e.Close()
	if _, err := e.Update(Update{Add: [][2]int32{{0, 8}}}, true); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.OracleEpochs["bicc"] != 0 || st.Epoch != 1 {
		t.Fatalf("epochs: bicc=%d published=%d, want 0/1", st.OracleEpochs["bicc"], st.Epoch)
	}
	oldRef := New(g, Config{Omega: 16, Seed: 9})
	defer oldRef.Close()
	newRef := New(e.Graph(), Config{Omega: 16, Seed: 9})
	defer newRef.Close()

	keys := []Query{{Kind: KindBridge, U: 0, V: 8}, {Kind: KindArticulation, U: 0}, {Kind: KindArticulation, U: 8}}
	refs := [2][]Result{oldRef.Do(keys), newRef.Do(keys)}
	for i, k := range keys {
		if *refs[0][i].Bool == *refs[1][i].Bool {
			t.Fatalf("%s(%d,%d) answers %v on both graphs; the test needs a changed answer", k.Kind, k.U, k.V, *refs[0][i].Bool)
		}
	}
	var qs []Query
	for _, mode := range []string{StalenessBounded, StalenessBounded, StalenessStrict, StalenessBounded, StalenessStrict, StalenessBounded} {
		for _, k := range keys {
			k.Staleness = mode
			qs = append(qs, k)
		}
	}

	got := e.Do(qs)
	built := false
	for i, q := range qs {
		r := got[i]
		if r.Err != "" {
			t.Fatalf("query %d (%+v) errored: %s", i, q, r.Err)
		}
		strict := q.Staleness == StalenessStrict
		built = built || strict
		wantEpoch := int64(0)
		if built && !strict {
			wantEpoch = 1
		}
		if r.Epoch != wantEpoch {
			t.Fatalf("query %d (%+v) tagged epoch %d, want %d", i, q, r.Epoch, wantEpoch)
		}
		ref := refs[0]
		if built {
			ref = refs[1]
		}
		if want := *ref[i%len(keys)].Bool; *r.Bool != want {
			t.Fatalf("query %d (%+v) = %v, want %v (built=%v)", i, q, *r.Bool, want, built)
		}
	}
	if st := e.Stats(); st.LazyRebuilds != 1 {
		t.Fatalf("lazy builds = %d, want 1", st.LazyRebuilds)
	}
}

// TestLazySingleFlight floods a deferred slot with concurrent strict
// queries and asserts exactly one build ran: the slot mutex makes the first
// query pay while the rest wait and reuse. Run under -race in CI.
func TestLazySingleFlight(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(48), 2) // vertices 0..47 and 48..95
	e := New(g, Config{Omega: 16, Seed: 5})
	defer e.Close()
	// A component-merging edge is guaranteed to be refused by the patch
	// predicates, so the slot is deterministically deferred.
	if _, err := e.Update(Update{Add: [][2]int32{{0, 48}}}, true); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Rebuilds[len(st.Rebuilds)-1].Strategies["bicc"] != StrategyLazy {
		t.Fatalf("batch not deferred: %+v", st.Rebuilds[len(st.Rebuilds)-1].Strategies)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range e.Do(biccProbe(96, uint64(w))) {
				if r.Err != "" {
					errs[w] = r.Err
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, msg := range errs {
		if msg != "" {
			t.Fatalf("worker %d: %s", w, msg)
		}
	}
	if st := e.Stats(); st.LazyRebuilds != 1 {
		t.Fatalf("%d builds ran under %d concurrent probes, want exactly 1 (single-flight)", st.LazyRebuilds, workers)
	}
}

// TestLazyBootDefersBicc pins Config.LazyBoot (what the registry sets for
// recovered graphs): the engine comes up with bicc unbuilt (-1 in the epoch
// map, NumBCC 0), serves conn queries without building it, and builds it on
// the first bicc-family query.
func TestLazyBootDefersBicc(t *testing.T) {
	g := graph.GNM(64, 96, 7, false)
	e := New(g, Config{Omega: 16, Seed: 5, LazyBoot: true})
	defer e.Close()

	st := e.Stats()
	if got := st.OracleEpochs["bicc"]; got != -1 {
		t.Fatalf("boot bicc epoch %d, want -1 (never built)", got)
	}
	if st.BuildCosts["bicc"].Writes != 0 || st.NumBCC != 0 {
		t.Fatalf("lazy boot paid for bicc: writes=%d numBCC=%d", st.BuildCosts["bicc"].Writes, st.NumBCC)
	}
	if r := e.Query(Query{Kind: KindConnected, U: 0, V: 1}); r.Err != "" {
		t.Fatalf("conn query on lazy-booted engine: %s", r.Err)
	}
	if st := e.Stats(); st.LazyRebuilds != 0 {
		t.Fatal("conn query triggered the deferred bicc build")
	}

	fresh := New(g, Config{Omega: 16, Seed: 5})
	defer fresh.Close()
	assertEquivalent(t, e, fresh, 31) // forces the build via bicc kinds
	st = e.Stats()
	if st.LazyRebuilds != 1 || st.OracleEpochs["bicc"] != st.Epoch {
		t.Fatalf("after bicc queries: lazy=%d epoch=%d/%d", st.LazyRebuilds, st.OracleEpochs["bicc"], st.Epoch)
	}
	if st.BuildCosts["bicc"].Writes == 0 {
		t.Fatal("deferred build cost did not surface in build_costs[bicc]")
	}
}

// TestCarriedClusterCounters guards publish-time folding of cluster-cache
// counters. A bicc instance carried into the next snapshot — absorbed as a
// no-op, or deferred as stale — keeps its counters live and must not also
// be folded into the engine's retired totals; an instance a lazy build
// replaced retires exactly once. It also pins the snapshot's structure
// counts.
func TestCarriedClusterCounters(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(16), 4) // four cycles: one block each
	e := New(g, Config{Omega: 16, Seed: 5, Workers: 1})
	defer e.Close()
	if st := e.Stats(); st.NumComponents != 4 || st.NumBCC != 4 {
		t.Fatalf("counts: %d components, %d blocks; want 4 and 4", st.NumComponents, st.NumBCC)
	}
	countsOf := func(cc *bicc.ClusterCache) CacheStats {
		h, m, ev := cc.Stats()
		return CacheStats{Hits: h, Misses: m, Evictions: ev}
	}
	retired := func() CacheStats {
		return CacheStats{Hits: e.ccHits.Load(), Misses: e.ccMisses.Load(), Evictions: e.ccEvicts.Load()}
	}
	update := func(u Update, wantBicc string) {
		t.Helper()
		before := e.Stats().Strategies["bicc"][wantBicc]
		if _, err := e.Update(u, true); err != nil {
			t.Fatalf("update %+v: %v", u, err)
		}
		if got := e.Stats().Strategies["bicc"][wantBicc]; got != before+1 {
			t.Fatalf("update %+v: bicc did not take the %s rung", u, wantBicc)
		}
	}

	e.Do(biccProbe(g.N(), 3))
	first := e.snap.Load().bicc.cache
	if st := e.Stats().ClusterCache; st.Misses == 0 || st != countsOf(first) {
		t.Fatalf("before any publish: /stats %+v, live cache %+v", st, countsOf(first))
	}

	// A chord inside a cycle while bicc is fresh: absorbed, the instance
	// and its cache carried; /stats is still exactly that cache's counts.
	update(Update{Add: [][2]int32{{0, 5}}}, StrategyPatchedInsert)
	if sn := e.snap.Load(); sn.bicc.cache != first || sn.biccLazy != nil {
		t.Fatal("no-op chord did not carry the fresh bicc instance")
	}
	if st := e.Stats().ClusterCache; st != countsOf(first) {
		t.Fatalf("after a no-op publish: /stats %+v, live cache %+v", st, countsOf(first))
	}

	// A cycle-edge removal defers bicc: the instance is carried stale.
	update(Update{Remove: [][2]int32{{20, 21}}}, StrategyLazy)
	if st := e.Stats().ClusterCache; st != countsOf(first) || retired() != (CacheStats{}) {
		t.Fatalf("after a deferring publish: /stats %+v, live cache %+v, retired %+v", st, countsOf(first), retired())
	}

	// The lazy build adds a second live cache beside the stale one.
	e.Do(biccProbe(g.N(), 4))
	lb := e.snap.Load().biccLazy.built.Load()
	if lb == nil {
		t.Fatal("strict bicc queries did not build the deferred slot")
	}
	second := lb.cache
	total := e.Stats().ClusterCache
	if f, s := countsOf(first), countsOf(second); total != (CacheStats{f.Hits + s.Hits, f.Misses + s.Misses, f.Evictions + s.Evictions}) {
		t.Fatalf("with two live caches: /stats %+v, caches %+v + %+v", total, f, s)
	}

	// The next publish retires the replaced instance once; the one after
	// that must not retire it again.
	for _, edge := range [][2]int32{{40, 41}, {60, 61}} {
		update(Update{Remove: [][2]int32{edge}}, StrategyLazy)
		if st := e.Stats().ClusterCache; st != total {
			t.Fatalf("after removing %v: /stats %+v, want %+v", edge, st, total)
		}
		if retired() != countsOf(first) {
			t.Fatalf("after removing %v: retired %+v, want the replaced instance's %+v once", edge, retired(), countsOf(first))
		}
	}
}

// BenchmarkLazyBiccBuild times the query-triggered bicc builds along a
// chain of patched conn rungs, the serving path's use of decomp.Repair:
// each op boots an engine on a uniform 3-regular graph (n = 8192, ω = 64,
// seed 7, no scheduled rebase) and publishes 64 batches of 8 random edge
// insertions and 8 removals, the same chain in every sub-benchmark. After
// every every=j batches a strict biconnectivity query builds bicc over the
// newest decomposition repaired onto the served graph: j batches old when
// the previous lazy build's is at hand, all of the chain for j = 64.
// ns/op is the time spent in those builds (the publishes are untimed);
// ms/build and writes/build (build_costs.bicc) are per lazy build. full/op
// counts the conn rungs that rebuilt because a removal split a component.
// Compare ms/build with BenchmarkEngineNew, whose boot build decomposes
// from scratch.
func BenchmarkLazyBiccBuild(b *testing.B) {
	const chain = 64
	g := graph.RandomRegular(8192, 3, 42)
	for _, every := range []int{1, 8, chain} {
		b.Run(fmt.Sprintf("every=%d", every), func(b *testing.B) {
			var writes, full, builds int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := New(g, Config{Omega: 64, Seed: 7, RebaseEvery: -1})
				rng := graph.NewRNG(1)
				for batch := 1; batch <= chain; batch++ {
					if _, err := e.Update(randomNetBatch(e.Graph(), rng, 8), true); err != nil {
						b.Fatal(err)
					}
					if batch%every != 0 {
						continue
					}
					b.StartTimer()
					e.Query(Query{Kind: KindArticulation, U: 0})
					b.StopTimer()
					writes += e.Stats().BuildCosts["bicc"].Writes
					builds++
				}
				for _, rec := range e.Stats().Rebuilds {
					if rec.Strategies["conn"] == StrategyFull {
						full++
					}
				}
				e.Close()
			}
			b.StartTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(builds)/1e6, "ms/build")
			b.ReportMetric(float64(writes)/float64(builds), "writes/build")
			b.ReportMetric(float64(full)/float64(b.N), "full/op")
		})
	}
}

// randomNetBatch returns an update of size random insertions and size
// removals of distinct random edges of g.
func randomNetBatch(g *graph.Graph, rng *graph.RNG, size int) Update {
	var u Update
	edges := g.Edges()
	picked := map[int]bool{}
	for len(u.Remove) < size {
		if i := rng.Intn(len(edges)); !picked[i] {
			picked[i] = true
			u.Remove = append(u.Remove, edges[i])
		}
	}
	for len(u.Add) < size {
		if a, c := int32(rng.Intn(g.N())), int32(rng.Intn(g.N())); a != c {
			u.Add = append(u.Add, [2]int32{a, c})
		}
	}
	return u
}
