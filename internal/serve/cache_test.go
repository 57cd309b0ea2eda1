package serve

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// This file tests the serving layer's result memoization (batch-local
// dedup + the epoch-keyed shared table): cached dispatch must be
// observably identical to a cache-free reference that recomputes every
// answer — same answers AND same per-kind charged costs, since hits replay
// the fill's recorded charges — and a snapshot swap must invalidate every
// memoized result.

// referenceDo answers qs with no caching at all, against the oracles of
// e's current snapshot: each query calls its adapter directly with nil
// scratch — the bicc adapter stripped of its cluster cache — and is charged
// the one answer write the engine charges. It returns the results and the
// per-kind Count/Errors/Cost the engine would report for the same queries.
func referenceDo(t *testing.T, e *Engine, qs []Query) ([]Result, map[string]KindStats) {
	t.Helper()
	sn := e.snap.Load()
	meters := map[Kind]*asym.Meter{}
	stats := map[string]KindStats{}
	out := make([]Result, len(qs))
	for i, q := range qs {
		ref, ok := e.byKind[q.Kind]
		if !ok {
			t.Fatalf("reference: unknown kind %q", q.Kind)
		}
		o := sn.oracleAt(ref.fac)
		if a, ok := o.(oracle.BiccAdapter); ok {
			o = oracle.BiccAdapter{O: a.O}
		}
		if meters[q.Kind] == nil {
			meters[q.Kind] = asym.NewMeter(e.omega)
		}
		m := meters[q.Kind]
		ks := stats[string(q.Kind)]
		av, err := o.Answer(m, asym.NewSymTracker(0), oracle.Query{Kind: q.Kind, U: q.U, V: q.V}, nil)
		if err != nil {
			ks.Errors++
			out[i] = Result{Err: err.Error()}
		} else {
			m.Write(1)
			ks.Count++
			if av.IsBool {
				b := av.Bool
				out[i] = Result{Bool: &b}
			} else {
				l := av.Label
				out[i] = Result{Label: &l}
			}
		}
		ks.Cost = m.Snapshot()
		stats[string(q.Kind)] = ks
	}
	return out, stats
}

// dupBatch builds a duplicate-laden batch over all six kinds: queries
// cycle through a small hot set, so both the batch-local dedup map and the
// shared table get exercised.
func dupBatch(n, hot int, gN int32, seed uint64) []Query {
	rng := graph.NewRNG(seed)
	kinds := []Kind{KindConnected, KindComponent, KindBridge, KindArticulation, KindBiconnected, KindTwoEdgeConnected}
	pairs := make([][2]int32, hot)
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(int(gN))), int32(rng.Intn(int(gN)))}
	}
	qs := make([]Query, n)
	for i := range qs {
		p := pairs[rng.Intn(hot)]
		qs[i] = Query{Kind: kinds[rng.Intn(len(kinds))], U: p[0], V: p[1]}
	}
	return qs
}

func sameResults(t *testing.T, got, want []Result, label string) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if g.Err != w.Err {
			t.Fatalf("%s: query %d error %q, want %q", label, i, g.Err, w.Err)
		}
		if (g.Bool == nil) != (w.Bool == nil) || (g.Bool != nil && *g.Bool != *w.Bool) {
			t.Fatalf("%s: query %d bool mismatch", label, i)
		}
		if (g.Label == nil) != (w.Label == nil) || (g.Label != nil && *g.Label != *w.Label) {
			t.Fatalf("%s: query %d label mismatch", label, i)
		}
	}
}

// TestResultCacheEquivalentToLegacy holds cached dispatch to the cache-free
// recompute-everything reference: same answers, same per-kind telemetry.
func TestResultCacheEquivalentToLegacy(t *testing.T) {
	g := graph.GNM(512, 700, 17, false)
	e := New(g, Config{Omega: 64, Seed: 7, Workers: 2})
	defer e.Close()

	var all []Query
	for round := 0; round < 3; round++ {
		qs := dupBatch(512, 40, int32(g.N()), uint64(100+round))
		want, _ := referenceDo(t, e, qs)
		sameResults(t, e.Do(qs), want, "round")
		all = append(all, qs...)
	}

	_, want := referenceDo(t, e, all)
	fs := e.Stats()
	if fs.TotalQueries != int64(len(all)) {
		t.Fatalf("engine counted %d queries, want %d", fs.TotalQueries, len(all))
	}
	for kind, w := range want {
		if got := fs.Queries[kind]; got.Count != w.Count || got.Errors != w.Errors || got.Cost != w.Cost {
			t.Fatalf("kind %s: cached telemetry %+v, cache-free reference %+v", kind, got, w)
		}
	}
	if fs.ResultCache.Hits == 0 {
		t.Fatalf("duplicate-laden rounds produced no shared-table hits: %+v", fs.ResultCache)
	}
	if fs.ResultCache.BatchDedup == 0 {
		t.Fatalf("duplicate-laden rounds produced no batch-local dedup hits: %+v", fs.ResultCache)
	}
	if fs.ClusterCache.Misses == 0 {
		t.Fatalf("bicc queries produced no cluster-cache fills: %+v", fs.ClusterCache)
	}
}

func TestResultCacheEpochInvalidation(t *testing.T) {
	g := graph.GNM(256, 340, 23, true)
	cfg := Config{Omega: 64, Seed: 7, Workers: 1}
	e := New(g, cfg)
	defer e.Close()

	// Distinct queries only (bool kinds, so answers stay comparable across
	// engines after the swap): first run fills, second run hits in full.
	kinds := []Kind{KindConnected, KindBridge, KindBiconnected, KindTwoEdgeConnected}
	qs := make([]Query, 128)
	for i := range qs {
		qs[i] = Query{Kind: kinds[i%4], U: int32(i % g.N()), V: int32((i*3 + 1) % g.N())}
	}
	e.Do(qs)
	h0 := e.Stats().ResultCache.Hits
	e.Do(qs)
	h1 := e.Stats().ResultCache.Hits
	// The table is direct-mapped, so a handful of slot collisions may evict
	// live entries; the second run must still hit on the vast majority.
	if h1-h0 < int64(len(qs))-8 {
		t.Fatalf("identical second batch: %d shared-table hits, want >= %d", h1-h0, len(qs)-8)
	}

	if _, err := e.Update(Update{Add: [][2]int32{{0, 100}, {1, 200}}}, true); err != nil {
		t.Fatalf("update: %v", err)
	}
	got := e.Do(qs)
	h2 := e.Stats().ResultCache.Hits
	if h2 != h1 {
		t.Fatalf("post-swap batch served %d stale hits; epoch keying must miss", h2-h1)
	}
	// Answers on the new epoch match the cache-free reference over a fresh
	// engine on the updated graph (bicc rebuilds fresh on both sides; bool
	// answers are canonical).
	fresh := New(e.Graph(), cfg)
	defer fresh.Close()
	want, _ := referenceDo(t, fresh, qs)
	sameResults(t, got, want, "post-swap")

	// Cluster-cache counters are cumulative across the swap: the retired
	// snapshot's fills are folded into the engine accumulators.
	if cc := e.Stats().ClusterCache; cc.Misses == 0 {
		t.Fatalf("cluster-cache telemetry lost across swap: %+v", cc)
	}
}
