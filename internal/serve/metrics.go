package serve

import (
	"repro/internal/obs"
)

// This file wires the engine and registry into the obs metrics registry
// (GET /metrics). The instrumentation obeys the package's two telemetry
// disciplines:
//
//   - Hot-path instruments (query latency, batch size, queue wait) are
//     pre-resolved atomic handles — Histogram.Observe is alloc-free, so the
//     //wec:noalloc answer path observes latencies directly and
//     serve/alloc_test.go holds with metrics enabled.
//   - Everything the engine already counts in its own atomics (per-kind
//     totals, admission, caches, epoch) is exported through scrape-time
//     func instruments, costing the serving path nothing at all.
//
// Label cardinality is bounded by construction: graph names (validated by
// graphNameRE, retired by Registry.Delete via DeleteLabeled), query kinds
// (the six of Kinds), rebuild strategies (the five ladder rungs), oracle
// names (conn, bicc), and cache layer names. Per-request values — vertex
// ids, batch contents — never become labels.

// Cache layer label values of wec_cache_*_total.
const (
	cacheLayerResult  = "result"
	cacheLayerCluster = "cluster"
)

// engineMetrics is one engine's pre-resolved instrument handles. Built at
// the end of New — after the first snapshot publishes — so every scrape-time
// callback can load the snapshot unconditionally.
type engineMetrics struct {
	graph string
	reg   *obs.Registry

	// qdur is indexed by the kind's aggregate slot (Kinds order) — the hot
	// answer path reaches its histogram with one array index.
	qdur        [numKinds]*obs.Histogram
	batchSize   *obs.Histogram
	queueWait   *obs.Histogram
	rebuildDur  map[string]*obs.Histogram // by strategy
	rebuildFail *obs.Counter
}

// newEngineMetrics registers the engine's per-graph families in reg (nil
// selects a fresh private registry) and resolves the hot-path handles.
func newEngineMetrics(reg *obs.Registry, graphName string, e *Engine) *engineMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if graphName == "" {
		graphName = "default"
	}
	m := &engineMetrics{graph: graphName, reg: reg}

	qdur := reg.NewHistogramVec("wec_query_duration_seconds",
		"Per-query answer latency through the engine dispatch path.", nil, "graph", "kind")
	queries := reg.NewFuncVec("wec_queries_total",
		"Queries answered successfully.", obs.TypeCounter, "graph", "kind")
	qerrors := reg.NewFuncVec("wec_query_errors_total",
		"Queries rejected as malformed (unknown vertex, bad arity).", obs.TypeCounter, "graph", "kind")
	for i, k := range Kinds {
		kind := string(k)
		m.qdur[i] = qdur.With(graphName, kind)
		agg := &e.kinds[i]
		queries.Set(func() float64 { return float64(agg.count.Load()) }, graphName, kind)
		qerrors.Set(func() float64 { return float64(agg.errors.Load()) }, graphName, kind)
	}

	m.batchSize = reg.NewHistogramVec("wec_batch_size_queries",
		"Queries per Do batch.", obs.SizeBuckets, "graph").With(graphName)
	m.queueWait = reg.NewHistogramVec("wec_pool_queue_wait_seconds",
		"Time a batch spent waiting for pool worker slots.", nil, "graph").With(graphName)

	reg.NewFuncVec("wec_admission_rejected_total",
		"Requests refused with 429 at the per-graph in-flight cap.", obs.TypeCounter, "graph").
		Set(func() float64 { return float64(e.rejected.Load()) }, graphName)
	reg.NewFuncVec("wec_admission_inflight",
		"Currently admitted requests.", obs.TypeGauge, "graph").
		Set(func() float64 { return float64(e.inflight.Load()) }, graphName)

	m.rebuildDur = make(map[string]*obs.Histogram, 5)
	rdur := reg.NewHistogramVec("wec_rebuild_duration_seconds",
		"Background rebuild duration by summary strategy; the lazy bucket observes deferred, query-triggered builds.", nil, "graph", "strategy")
	for _, s := range []string{StrategyPatchedInsert, StrategyPatchedDelete, StrategyRebased, StrategyFull, StrategyLazy} {
		m.rebuildDur[s] = rdur.With(graphName, s)
	}
	m.rebuildFail = reg.NewCounterVec("wec_rebuild_failures_total",
		"Rebuild attempts that failed (their batches dropped).", "graph").With(graphName)

	reg.NewFuncVec("wec_rebuilds_avoided_total",
		"Publishes at which a deferrable oracle skipped its eager rebuild (deferred lazily or absorbed as a provable no-op patch).", obs.TypeCounter, "graph").
		Set(func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.nRebuilds) // every publish skips the bicc rebuild
		}, graphName)
	reg.NewFuncVec("wec_lazy_rebuilds_total",
		"Deferred oracle rebuilds actually performed on the query path (single-flight, first matching query pays).", obs.TypeCounter, "graph").
		Set(func() float64 { return float64(m.rebuildDur[StrategyLazy].Count()) }, graphName)

	reg.NewFuncVec("wec_published_epoch",
		"Epoch of the currently published snapshot.", obs.TypeGauge, "graph").
		Set(func() float64 { return float64(e.snap.Load().epoch) }, graphName)
	oep := reg.NewFuncVec("wec_oracle_epoch",
		"Epoch each oracle's built state corresponds to; wec_published_epoch minus this is the oracle's staleness lag (-1 = never built).", obs.TypeGauge, "graph", "oracle")
	oep.Set(func() float64 { return float64(e.snap.Load().epoch) }, graphName, "conn")
	oep.Set(func() float64 { _, built := e.snap.Load().effectiveBicc(); return float64(built) }, graphName, "bicc")
	reg.NewFuncVec("wec_pending_batches",
		"Staged update batches not yet folded into a snapshot.", obs.TypeGauge, "graph").
		Set(func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.unapplied)
		}, graphName)
	edges := reg.NewFuncVec("wec_edges_added_total",
		"Edges added by published updates.", obs.TypeCounter, "graph")
	edges.Set(func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.edgesAdded)
	}, graphName)
	removed := reg.NewFuncVec("wec_edges_removed_total",
		"Edges removed by published updates.", obs.TypeCounter, "graph")
	removed.Set(func() float64 {
		e.mu.Lock()
		defer e.mu.Unlock()
		return float64(e.edgesRemoved)
	}, graphName)

	hits := reg.NewFuncVec("wec_cache_hits_total",
		"Query-path cache hits by layer (result, cluster).", obs.TypeCounter, "graph", "cache")
	misses := reg.NewFuncVec("wec_cache_misses_total",
		"Query-path cache misses by layer.", obs.TypeCounter, "graph", "cache")
	evicts := reg.NewFuncVec("wec_cache_evictions_total",
		"Query-path cache evictions by layer.", obs.TypeCounter, "graph", "cache")
	hits.Set(func() float64 { return float64(e.rcHits.Load()) }, graphName, cacheLayerResult)
	misses.Set(func() float64 { return float64(e.rcMisses.Load()) }, graphName, cacheLayerResult)
	evicts.Set(func() float64 { return float64(e.rcEvicts.Load()) }, graphName, cacheLayerResult)
	hits.Set(func() float64 { h, _, _ := e.clusterCacheCounts(); return float64(h) }, graphName, cacheLayerCluster)
	misses.Set(func() float64 { _, ms, _ := e.clusterCacheCounts(); return float64(ms) }, graphName, cacheLayerCluster)
	evicts.Set(func() float64 { _, _, ev := e.clusterCacheCounts(); return float64(ev) }, graphName, cacheLayerCluster)

	return m
}

// registerFleetMetrics registers the registry-wide families — the shared
// worker pool and the graph count — which carry no graph label.
func registerFleetMetrics(reg *obs.Registry, r *Registry) {
	reg.NewFuncVec("wec_pool_size",
		"Worker slots in the shared query pool.", obs.TypeGauge).
		Set(func() float64 { return float64(r.pool.Size()) })
	reg.NewFuncVec("wec_pool_in_use",
		"Worker slots currently running batch chunks.", obs.TypeGauge).
		Set(func() float64 { return float64(r.pool.inUse.Load()) })
	reg.NewFuncVec("wec_pool_tasks_total",
		"Batch chunks executed by the shared pool.", obs.TypeCounter).
		Set(func() float64 { return float64(r.pool.tasks.Load()) })
	reg.NewFuncVec("wec_graphs",
		"Graphs registered in the fleet (any lifecycle state).", obs.TypeGauge).
		Set(func() float64 {
			r.mu.Lock()
			defer r.mu.Unlock()
			return float64(len(r.graphs))
		})
}
