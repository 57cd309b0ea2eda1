package serve

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
)

// This file tests the serving layer's result memoization (the epoch-keyed
// shared table): cached dispatch must be observably identical to a
// cache-free reference that recomputes every answer — same answers AND
// same per-kind charged costs, since hits replay the fill's recorded
// charges — and a snapshot swap must invalidate every memoized result.

// referenceDo answers qs with no caching at all, against the oracles of
// e's current snapshot: each query is a direct oracle call with nil scratch
// and no cluster cache (direct), charged the one answer write the engine
// charges. It returns the results and the per-kind Count/Cost the engine
// would report for the same queries.
func referenceDo(t *testing.T, e *Engine, qs []Query) ([]Result, map[string]KindStats) {
	t.Helper()
	meters := map[Kind]*asym.Meter{}
	stats := map[string]KindStats{}
	out := make([]Result, len(qs))
	for i, q := range qs {
		if kindIndex(q.Kind) < 0 {
			t.Fatalf("reference: unknown kind %q", q.Kind)
		}
		if meters[q.Kind] == nil {
			meters[q.Kind] = asym.NewMeter(e.omega)
		}
		m := meters[q.Kind]
		out[i] = direct(e, m, asym.NewSymTracker(0), q)
		m.Write(1)
		ks := stats[string(q.Kind)]
		ks.Count++
		ks.Cost = m.Snapshot()
		stats[string(q.Kind)] = ks
	}
	return out, stats
}

// dupBatch builds a duplicate-laden batch over all six kinds: queries
// cycle through a small hot set, so the shared table serves repeats both
// within one batch and across batches.
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
	if fs.ClusterCache.Misses == 0 {
		t.Fatalf("bicc queries produced no cluster-cache fills: %+v", fs.ClusterCache)
	}

	// In-batch duplicates: one chunk of a fresh engine answers a single
	// duplicate-laden batch. Every repeat of a (kind, u, v) already filled
	// in that batch must be a shared-table hit, so misses are bounded by
	// the distinct keys plus the fills a slot collision evicted.
	one := New(g, Config{Omega: 64, Seed: 7, Workers: 1})
	defer one.Close()
	qs := dupBatch(512, 40, int32(g.N()), 200)
	want1, _ := referenceDo(t, one, qs)
	sameResults(t, one.Do(qs), want1, "single batch")
	distinct := map[Query]bool{}
	for _, q := range qs {
		distinct[q] = true
	}
	rc := one.Stats().ResultCache
	if rc.Misses > int64(len(distinct))+rc.Evictions {
		t.Fatalf("single batch: %d misses for %d distinct queries and %d evictions: %+v",
			rc.Misses, len(distinct), rc.Evictions, rc)
	}
	if rc.Hits+rc.Misses != int64(len(qs)) {
		t.Fatalf("single batch: hits+misses = %d, want %d: %+v", rc.Hits+rc.Misses, len(qs), rc)
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

// BenchmarkResultCache times the result table's two operations on their
// own: a get that hits, a get that misses (empty slot or another epoch),
// a put, and gets and puts from every P at once (a 7:1 mix, the stripes'
// contention case). The 4096 keys are half the table, so the working set
// stays resident and most hits find their own slot.
func BenchmarkResultCache(b *testing.B) {
	const nkeys = 4096
	keys := make([]rcKey, nkeys)
	rng := graph.NewRNG(1)
	for i := range keys {
		keys[i] = rcKey{agg: int32(i % 6), u: int32(rng.Intn(1 << 16)), v: int32(rng.Intn(1 << 16))}
	}
	val := rcVal{ans: 1, cost: asym.Cost{Reads: 900, Ops: 300}, peak: 64}
	filled := func() *resultCache {
		c := newResultCache()
		for _, k := range keys {
			c.put(1, k, val)
		}
		return c
	}
	b.Run("get-hit", func(b *testing.B) {
		c := filled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := c.get(1, keys[i%nkeys])
			benchRC += v.peak
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		c := filled()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v, _ := c.get(2, keys[i%nkeys])
			benchRC += v.peak
		}
	})
	b.Run("put", func(b *testing.B) {
		c := newResultCache()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if c.put(int64(1+i/nkeys), keys[i%nkeys], val) {
				benchRC++
			}
		}
	})
	b.Run("mixed-parallel", func(b *testing.B) {
		c := filled()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := keys[i%nkeys]
				if i%8 == 7 {
					c.put(1, k, val)
				} else {
					c.get(1, k)
				}
				i++
			}
		})
	})
}

var benchRC int64
