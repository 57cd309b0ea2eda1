package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Churn workload (-exp serve -servechurn N): the end-to-end gate on the
// dynamic-update path. An in-process oracled serves a generated graph while
// -serveconc clients keep /batch query load running; the main goroutine
// interleaves N /update batches cycling through three shapes — insertion-
// only (patch-insert path), deletion-heavy (patch-delete path: every
// removal is chosen split-free, so the maintained spanning forest absorbs
// it, replacement search included, with zero full conn rebuilds), and
// mixed add+remove — each with wait=true so the returned epoch is the
// batch's snapshot. The harness mirrors the engine's strategy ladder
// (including the -servechurnrebase re-base cadence) and asserts the
// per-oracle strategy sequence and cumulative strategy counters match
// exactly. After every swap the server's answers are verified against a
// from-scratch engine rebuilt over the evolving edge list. The process
// exits nonzero unless every query was answered, every post-swap answer
// matched, the epoch advanced once per batch, the conn oracle was never
// fully rebuilt, the deferrable bicc oracle never rebuilt on the publish
// path (every batch deferred lazily or absorbed as a no-op patch), and
// every patched rebuild reported strictly fewer connectivity-oracle writes
// than the from-scratch build.
//
// With -servechurnconnonly the query load and per-epoch verification are
// restricted to conn kinds, and the harness gates on the lazy-rebuild
// counter staying at ZERO: a pure-connectivity tenant must be able to
// churn the graph forever without ever paying for a biconnectivity build,
// neither at publish time nor on the query path. This is `make
// smoke-churn`'s second phase.
var (
	serveChurn         = flag.Int("servechurn", 0, "serve mode: interleaved /update batches (0 = static serving; in-process only)")
	serveChurnEdges    = flag.Int("servechurnedges", 32, "serve mode: edges added/removed per update batch")
	serveChurnRebase   = flag.Int("servechurnrebase", 5, "serve mode: re-base the conn patch chain after this many chained batches (0 = engine default, negative = never)")
	serveChurnConnOnly = flag.Bool("servechurnconnonly", false, "serve mode: conn-kind-only churn; gate on zero bicc builds (publish path and lazy)")
)

func churnBench(scale int) {
	if *serveAddr != "" {
		fmt.Fprintf(os.Stderr, "churn: -servechurn needs the in-process server (verification rebuilds the oracle from the evolving edge list); drop -serveaddr\n")
		os.Exit(2)
	}
	header("Serve-churn", "dynamic updates under query load: snapshot swaps, answer verification, incremental write savings")

	// A disconnected base (8 random-regular islands) so insertion batches
	// actually merge components and the incremental label-merge path does
	// real work rather than trivially writing nothing. Degree 3 keeps most
	// edges on cycles, so split-free removals are plentiful.
	g := graph.Disconnected(graph.RandomRegular((1<<8)*scale, 3, 71), 8)
	n := g.N()
	fmt.Printf("in-process oracled: n=%d m=%d ω=%d; churn: %d batches × %d edges under %d query clients (rebase every %d)\n",
		g.N(), g.M(), *serveOmega, *serveChurn, *serveChurnEdges, *serveConc, *serveChurnRebase)
	eng := serve.New(g, serve.Config{Omega: *serveOmega, Seed: 7, RebaseEvery: *serveChurnRebase})
	defer eng.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: listen: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: serve.NewServer(eng)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Continuous query load for the whole churn window.
	var stop, failed atomic.Bool
	var answered atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < *serveConc; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := graph.NewRNG(uint64(9000 + client))
			for !stop.Load() {
				var qs []serve.Query
				if *serveChurnConnOnly {
					qs = connOnlyBatch(rng, n, *serveBatchSz)
				} else {
					qs = randomBatch(rng, n, *serveBatchSz)
				}
				if err := postBatch(base, qs); err != nil {
					fmt.Fprintf(os.Stderr, "churn: query batch failed: %v\n", err)
					failed.Store(true)
					stop.Store(true)
					return
				}
				answered.Add(int64(*serveBatchSz))
			}
		}(c)
	}

	// Mirror the engine's strategy ladder so every batch's expected conn
	// strategy (and the re-base cadence) can be asserted exactly.
	effRebase := *serveChurnRebase
	switch {
	case effRebase == 0:
		effRebase = serve.DefaultRebaseEvery
	case effRebase < 0:
		effRebase = 0
	}
	depth := 0
	var expect []string

	edges := g.Edges()
	rng := graph.NewRNG(4242)
	var fresh *serve.Engine
	start := time.Now()
	for i := 1; i <= *serveChurn && !failed.Load(); i++ {
		req := serve.UpdateRequest{Wait: true}
		working := edges
		switch i % 3 {
		case 1: // insertion-only: the patch-insert path
			for j := 0; j < *serveChurnEdges; j++ {
				req.Add = append(req.Add, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
			}
			working = append(working, req.Add...)
		case 2: // deletion-heavy: the patch-delete path, split-free removals only
			req.Remove, working = pickSplitFreeRemovals(rng, n, working, *serveChurnEdges)
			if len(req.Remove) == 0 {
				// Degenerate graph with no split-free edge left: keep the
				// batch non-empty (and the ladder mirror honest) with one add.
				req.Add = append(req.Add, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
				working = append(working, req.Add...)
			}
		default: // mixed: half adds (applied first), half split-free removals
			half := *serveChurnEdges / 2
			for j := 0; j < half; j++ {
				req.Add = append(req.Add, [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))})
			}
			working = append(append([][2]int32{}, working...), req.Add...)
			req.Remove, working = pickSplitFreeRemovals(rng, n, working, half)
		}
		if effRebase > 0 && depth >= effRebase {
			expect = append(expect, serve.StrategyRebased)
			depth = 0
		} else if len(req.Remove) > 0 {
			expect = append(expect, serve.StrategyPatchedDelete)
			// Chain depth counts patch *generations*: a mixed batch folds
			// twice (insertions, then deletions), a pure one once.
			depth++
			if len(req.Add) > 0 {
				depth++
			}
		} else {
			expect = append(expect, serve.StrategyPatchedInsert)
			depth++
		}
		var ur serve.UpdateResponse
		if err := postUpdate(base, req, &ur); err != nil {
			fmt.Fprintf(os.Stderr, "churn: FAILED — update %d: %v\n", i, err)
			failed.Store(true)
			break
		}
		if !ur.Applied || ur.Epoch != int64(i) {
			fmt.Fprintf(os.Stderr, "churn: FAILED — update %d not applied at epoch %d: %+v\n", i, i, ur)
			failed.Store(true)
			break
		}
		edges = working

		// Every post-swap answer must match a from-scratch rebuilt oracle.
		if fresh != nil {
			fresh.Close()
		}
		fresh = serve.New(graph.FromEdges(n, edges), serve.Config{Omega: *serveOmega, Seed: 7})
		if err := verifyChurn(base, fresh, edges, graph.NewRNG(uint64(31*i)), *serveChurnConnOnly); err != nil {
			fmt.Fprintf(os.Stderr, "churn: FAILED — epoch %d verification: %v\n", i, err)
			failed.Store(true)
			break
		}
		fmt.Printf("  epoch %2d: +%d/-%d edges applied and verified (m=%d, want %s)\n",
			ur.Epoch, len(req.Add), len(req.Remove), len(edges), expect[len(expect)-1])
	}
	stop.Store(true)
	wg.Wait()
	wall := time.Since(start)
	if fresh == nil {
		fmt.Fprintf(os.Stderr, "churn: FAILED — no batch applied\n")
		os.Exit(1)
	}
	defer fresh.Close()

	st, err := fetchStats(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "churn: FAILED — /stats: %v\n", err)
		os.Exit(1)
	}
	for kind, ks := range st.Queries {
		if ks.Errors != 0 {
			fmt.Fprintf(os.Stderr, "churn: FAILED — %d %s queries errored\n", ks.Errors, kind)
			failed.Store(true)
		}
	}
	wantInc := int64(0)
	wantByStrat := map[string]int64{}
	for _, s := range expect {
		wantByStrat[s]++
		if s == serve.StrategyPatchedInsert || s == serve.StrategyPatchedDelete {
			wantInc++
		}
	}
	if st.Epoch != int64(*serveChurn) || st.PendingUpdates != 0 ||
		st.TotalRebuilds != int64(*serveChurn) || st.IncrementalRebuilds != wantInc {
		fmt.Fprintf(os.Stderr, "churn: FAILED — stats epoch=%d pending=%d rebuilds=%d incremental=%d (want %d/0/%d/%d)\n",
			st.Epoch, st.PendingUpdates, st.TotalRebuilds, st.IncrementalRebuilds,
			*serveChurn, *serveChurn, wantInc)
		failed.Store(true)
	}

	// The tentpole gates. Conn: never fully rebuilt — every deletion was
	// split-free, so the maintained spanning forest absorbed all of them —
	// and the cumulative per-oracle strategy counters must match the
	// mirrored ladder exactly. Bicc: never rebuilt on the publish path —
	// every batch was either deferred to the lazy rung or absorbed as a
	// provable no-op patch, so the counted avoided rebuilds must cover every
	// epoch.
	connStrat := st.Strategies["conn"]
	if connStrat[serve.StrategyFull] != 0 {
		fmt.Fprintf(os.Stderr, "churn: FAILED — %d full conn rebuilds (want 0): %v\n",
			connStrat[serve.StrategyFull], connStrat)
		failed.Store(true)
	}
	for _, s := range []string{serve.StrategyPatchedInsert, serve.StrategyPatchedDelete, serve.StrategyRebased} {
		if connStrat[s] != wantByStrat[s] {
			fmt.Fprintf(os.Stderr, "churn: FAILED — conn strategy %q count %d, want %d\n",
				s, connStrat[s], wantByStrat[s])
			failed.Store(true)
		}
	}
	biccStrat := st.Strategies["bicc"]
	if biccStrat[serve.StrategyFull] != 0 || biccStrat[serve.StrategyRebased] != 0 {
		fmt.Fprintf(os.Stderr, "churn: FAILED — bicc rebuilt on the publish path: %v\n", biccStrat)
		failed.Store(true)
	}
	deferred := biccStrat[serve.StrategyLazy] + biccStrat[serve.StrategyPatchedInsert] + biccStrat[serve.StrategyPatchedDelete]
	if deferred != int64(*serveChurn) {
		fmt.Fprintf(os.Stderr, "churn: FAILED — bicc deferred/patched %d of %d batches: %v\n",
			deferred, *serveChurn, biccStrat)
		failed.Store(true)
	}
	if st.RebuildsAvoided != int64(*serveChurn) {
		fmt.Fprintf(os.Stderr, "churn: FAILED — rebuilds_avoided %d, want %d\n",
			st.RebuildsAvoided, *serveChurn)
		failed.Store(true)
	}
	if *serveChurnConnOnly {
		// The conn-only gate: with no bicc-family query ever arriving, the
		// deferred slot must never have built — zero publish-path rebuilds
		// AND zero query-path (lazy) rebuilds, counter-checked.
		if st.LazyRebuilds != 0 {
			fmt.Fprintf(os.Stderr, "churn: FAILED — %d lazy bicc builds under a conn-only workload (want 0)\n",
				st.LazyRebuilds)
			failed.Store(true)
		}
	} else if st.LazyRebuilds != biccStrat[serve.StrategyLazy] {
		// Every deferred epoch is verified with bicc-family queries before
		// the next batch, so exactly one lazy build per lazy deferral.
		fmt.Fprintf(os.Stderr, "churn: FAILED — %d lazy bicc builds, want %d (one per deferral)\n",
			st.LazyRebuilds, biccStrat[serve.StrategyLazy])
		failed.Store(true)
	}
	fmt.Printf("bicc deferral: %d avoided publish-path rebuilds (%v), %d query-triggered builds\n",
		st.RebuildsAvoided, biccStrat, st.LazyRebuilds)
	fmt.Printf("oracle epochs at exit: %v (published %d)\n", st.OracleEpochs, st.Epoch)

	// Per-rebuild cost telemetry, and the write-savings gate: every
	// patched rebuild must report strictly fewer connectivity-oracle
	// writes than building that oracle from scratch. /stats keeps a bounded
	// history, so assert we got exactly the records we expect and say so
	// when the oldest epochs rotated out rather than reading as covered.
	wantRecords := *serveChurn
	if wantRecords > serve.MaxRebuildHistory {
		wantRecords = serve.MaxRebuildHistory
		fmt.Printf("(rebuild history capped at %d records; epochs 1..%d rotated out of the write-savings gate)\n",
			serve.MaxRebuildHistory, *serveChurn-serve.MaxRebuildHistory)
	}
	if len(st.Rebuilds) != wantRecords {
		fmt.Fprintf(os.Stderr, "churn: FAILED — /stats returned %d rebuild records, want %d\n",
			len(st.Rebuilds), wantRecords)
		failed.Store(true)
	}
	fullConnWrites := fresh.Stats().BuildCosts["conn"].Writes
	fmt.Printf("\n%6s %-14s %8s %8s | %12s %12s %12s | %9s\n",
		"epoch", "conn strategy", "+edges", "-edges", "graph wr", "conn wr", "bicc wr", "ms")
	for _, r := range st.Rebuilds {
		fmt.Printf("%6d %-14s %8d %8d | %12d %12d %12d | %9.1f\n",
			r.Epoch, r.Strategies["conn"], r.AddedEdges, r.RemovedEdges,
			r.GraphCost.Writes, r.OracleCosts["conn"].Writes, r.OracleCosts["bicc"].Writes,
			float64(r.Duration.Microseconds())/1000)
		if int(r.Epoch) >= 1 && int(r.Epoch) <= len(expect) {
			if want := expect[r.Epoch-1]; r.Strategies["conn"] != want {
				fmt.Fprintf(os.Stderr, "churn: FAILED — epoch %d conn strategy %q, want %q\n",
					r.Epoch, r.Strategies["conn"], want)
				failed.Store(true)
			}
		}
		patched := r.Strategies["conn"] == serve.StrategyPatchedInsert || r.Strategies["conn"] == serve.StrategyPatchedDelete
		if connWrites := r.OracleCosts["conn"].Writes; patched && connWrites >= fullConnWrites {
			fmt.Fprintf(os.Stderr, "churn: FAILED — patched epoch %d conn writes %d not below full build %d\n",
				r.Epoch, connWrites, fullConnWrites)
			failed.Store(true)
		}
	}
	fmt.Printf("from-scratch conn-oracle build writes: %d (patched rebuilds stay strictly below)\n", fullConnWrites)
	fmt.Printf("conn strategy counters: %v\n", connStrat)
	fmt.Printf("\n%d epochs, %d queries answered during churn, %v wall, 0 failed\n",
		st.Epoch, answered.Load(), wall.Round(time.Millisecond))

	if failed.Load() {
		os.Exit(1)
	}
}

// pickSplitFreeRemovals chooses up to count removals from the working edge
// multiset such that no removal can split a component: a chosen edge either
// keeps a surviving parallel copy or its endpoints stay connected through
// the remaining edges (checked by BFS). This is what pins the server's
// behavior: every such removal must be absorbed by the maintained spanning
// forest (possibly via replacement-edge search) without a full conn
// rebuild. Returns the removals and the remaining multiset.
func pickSplitFreeRemovals(rng *graph.RNG, n int, working [][2]int32, count int) (removed, remaining [][2]int32) {
	remaining = append([][2]int32{}, working...)
	for attempts := 0; len(removed) < count && attempts < 8*count && len(remaining) > 0; attempts++ {
		idx := rng.Intn(len(remaining))
		if !graph.RemovalPreservesConnectivity(n, remaining, idx) {
			continue
		}
		removed = append(removed, remaining[idx])
		remaining[idx] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
	}
	return removed, remaining
}

// connOnlyBatch builds a query batch restricted to conn kinds — the
// -servechurnconnonly load, which must never touch the deferred bicc slot.
func connOnlyBatch(rng *graph.RNG, n, batch int) []serve.Query {
	qs := make([]serve.Query, batch)
	for i := range qs {
		qs[i] = serve.Query{Kind: connKinds[rng.Intn(len(connKinds))], U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return qs
}

// verifyChurn compares the served answers (via /batch) with a from-scratch
// engine over the same edge list: boolean kinds must agree exactly,
// component labels as a partition. With connOnly the probe skips the
// bicc-family kinds entirely — a conn-only run's verification must not be
// the thing that triggers the deferred bicc build.
func verifyChurn(base string, fresh *serve.Engine, edges [][2]int32, rng *graph.RNG, connOnly bool) error {
	n := fresh.Graph().N()
	boolKinds := []serve.Kind{serve.KindConnected, serve.KindBridge, serve.KindArticulation, serve.KindBiconnected, serve.KindTwoEdgeConnected}
	if connOnly {
		boolKinds = []serve.Kind{serve.KindConnected}
	}
	qs := make([]serve.Query, 0, 256)
	for j := 0; j < 200; j++ {
		kind := boolKinds[rng.Intn(len(boolKinds))]
		var u, v int32
		if (kind == serve.KindBridge || kind == serve.KindBiconnected) && j%2 == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			u, v = e[0], e[1]
		} else {
			u, v = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		qs = append(qs, serve.Query{Kind: kind, U: u, V: v})
	}
	compBase := len(qs)
	for j := 0; j < 64; j++ {
		qs = append(qs, serve.Query{Kind: serve.KindComponent, U: int32(rng.Intn(n))})
	}
	got, err := postBatchResults(base, qs)
	if err != nil {
		return err
	}
	want := fresh.Do(qs)
	for i := 0; i < compBase; i++ {
		g, w := got[i], want[i]
		if g.Err != "" || w.Err != "" || g.Bool == nil || w.Bool == nil || *g.Bool != *w.Bool {
			return fmt.Errorf("%s(%d,%d): served %s, from-scratch %s",
				qs[i].Kind, qs[i].U, qs[i].V, resultString(g), resultString(w))
		}
	}
	// Component labels need only induce the same partition (a full rebuild
	// may renumber canonical labels).
	fwd := map[int32]int32{}
	bwd := map[int32]int32{}
	for i := compBase; i < len(qs); i++ {
		g, w := got[i], want[i]
		if g.Label == nil || w.Label == nil {
			return fmt.Errorf("component(%d): served %s, from-scratch %s", qs[i].U, resultString(g), resultString(w))
		}
		if x, ok := fwd[*g.Label]; ok && x != *w.Label {
			return fmt.Errorf("component partition diverges at vertex %d", qs[i].U)
		}
		if x, ok := bwd[*w.Label]; ok && x != *g.Label {
			return fmt.Errorf("component partition diverges at vertex %d", qs[i].U)
		}
		fwd[*g.Label] = *w.Label
		bwd[*w.Label] = *g.Label
	}
	return nil
}

func resultString(r serve.Result) string {
	switch {
	case r.Err != "":
		return fmt.Sprintf("error(%s)", r.Err)
	case r.Bool != nil:
		return fmt.Sprintf("%v", *r.Bool)
	case r.Label != nil:
		return fmt.Sprintf("label(%d)", *r.Label)
	}
	return "empty"
}

func postUpdate(base string, req serve.UpdateRequest, out *serve.UpdateResponse) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /update: %s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postBatchResults(base string, qs []serve.Query) ([]serve.Result, error) {
	body, err := json.Marshal(serve.BatchRequest{Queries: qs})
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST /batch: %s", resp.Status)
	}
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(qs) {
		return nil, fmt.Errorf("POST /batch: sent %d got %d results", len(qs), len(br.Results))
	}
	return br.Results, nil
}
