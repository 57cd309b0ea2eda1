package serve

import (
	"sync"
	"testing"

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
	if st.BuildBicc.Writes != 0 || st.NumBCC != 0 {
		t.Fatalf("lazy boot paid for bicc: writes=%d numBCC=%d", st.BuildBicc.Writes, st.NumBCC)
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
	if st.BuildBicc.Writes == 0 {
		t.Fatal("deferred build cost did not surface in BuildBicc")
	}
}
