package main

import (
	"bytes"
	"runtime"
	"syscall"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Program-internal layer figures come from two public surfaces read at the
// same boundaries as the benchmark's own spans: the Prometheus exposition
// (times: answer, pool wait, publish by strategy, lazy build, WAL) and
// Engine.Stats (counts: asymmetric costs, cache hits, update strategies).

// scrape is one parsed /metrics exposition.
type scrape struct{ samples []obs.Sample }

func scrapeMetrics(m *obs.Registry) (scrape, error) {
	var b bytes.Buffer
	if err := m.WritePrometheus(&b); err != nil {
		return scrape{}, err
	}
	exp, err := obs.ParseExposition(&b)
	if err != nil {
		return scrape{}, err
	}
	return scrape{exp.Samples}, nil
}

// sum adds up every sample called name whose labels include want.
func (s scrape) sum(name string, want map[string]string) float64 {
	total := 0.0
next:
	for _, smp := range s.samples {
		if smp.Name != name {
			continue
		}
		for k, v := range want {
			if smp.Labels[k] != v {
				continue next
			}
		}
		total += smp.Value
	}
	return total
}

// window is the difference between two scrapes.
type window struct{ a, b scrape }

func (w window) delta(name string, want map[string]string) float64 {
	return w.b.sum(name, want) - w.a.sum(name, want)
}

// histMean is the mean observation of a histogram family over the window
// (0 when nothing was observed), scaled by unit.
func (w window) histMean(family string, want map[string]string, unit float64) float64 {
	n := w.delta(family+"_count", want)
	if n == 0 {
		return 0
	}
	return w.delta(family+"_sum", want) / n * unit
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// scrapeLayers fills the per-layer figures read from /metrics.
func scrapeLayers(w window, out map[string]float64) {
	qdur := func(kinds []serve.Kind) float64 {
		var sum, cnt float64
		for _, k := range kinds {
			sel := map[string]string{"kind": string(k)}
			sum += w.delta("wec_query_duration_seconds_sum", sel)
			cnt += w.delta("wec_query_duration_seconds_count", sel)
		}
		return ratio(sum, cnt) * 1e6
	}
	out["serve.engine.answer_us.conn"] = qdur(connKinds)
	out["serve.engine.answer_us.bicc"] = qdur(biccKinds)
	out["serve.pool.wait_ms"] = w.histMean("wec_pool_queue_wait_seconds", nil, 1e3)

	cache := func(layer string) (hits, misses float64) {
		sel := map[string]string{"cache": layer}
		return w.delta("wec_cache_hits_total", sel), w.delta("wec_cache_misses_total", sel)
	}
	h, m := cache("result")
	out["serve.resultcache.hit_ratio"] = ratio(h, h+m)
	dedup, _ := cache("batch_dedup")
	out["serve.resultcache.dedup_ratio"] = ratio(dedup, w.delta("wec_queries_total", nil))
	h, m = cache("cluster")
	out["bicc.cluster_hit_ratio"] = ratio(h, h+m)

	out["serve.lazy.build_ms"] = w.histMean("wec_rebuild_duration_seconds", map[string]string{"strategy": serve.StrategyLazy}, 1e3)
	for _, s := range publishStrategies {
		out["serve.update.publish_ms."+s] = w.histMean("wec_rebuild_duration_seconds", map[string]string{"strategy": s}, 1e3)
	}

	out["store.wal_append_ms"] = w.histMean("wec_wal_append_seconds", nil, 1e3)
	out["store.wal_fsync_ms"] = w.histMean("wec_wal_fsync_seconds", nil, 1e3)
	out["store.wal_commit_ms"] = w.histMean("wec_wal_commit_seconds", nil, 1e3)
	out["store.snapshot_write_ms"] = w.histMean("wec_snapshot_write_seconds", nil, 1e3)
	out["store.snapshot_bytes"] = w.b.sum("wec_snapshot_bytes", nil)
	out["store.compactions"] = w.delta("wec_compactions_total", nil)
}

// publishStrategies are the publish-path rungs; lazy builds are timed on
// the query path and reported separately.
var publishStrategies = []string{serve.StrategyPatchedInsert, serve.StrategyPatchedDelete, serve.StrategyRebased, serve.StrategyFull}

// strategyKeys are the (oracle, strategy) pairs the update histogram
// reports. Pairs the engine cannot take (conn never goes lazy) are left
// out.
var strategyKeys = [][2]string{
	{"conn", serve.StrategyPatchedInsert}, {"conn", serve.StrategyPatchedDelete},
	{"conn", serve.StrategyRebased}, {"conn", serve.StrategyFull},
	{"bicc", serve.StrategyPatchedInsert}, {"bicc", serve.StrategyPatchedDelete},
	{"bicc", serve.StrategyLazy}, {"bicc", serve.StrategyFull},
}

// queryCosts is the asymmetric cost charged to queries between two Stats
// reads, per kind and in total.
type queryCosts struct {
	count, reads, writes map[string]int64
}

func costsBetween(a, b serve.Stats) queryCosts {
	qc := queryCosts{count: map[string]int64{}, reads: map[string]int64{}, writes: map[string]int64{}}
	for kind, kb := range b.Queries {
		ka := a.Queries[kind]
		qc.count[kind] = kb.Count - ka.Count
		qc.reads[kind] = kb.Cost.Reads - ka.Cost.Reads
		qc.writes[kind] = kb.Cost.Writes - ka.Cost.Writes
	}
	return qc
}

func (qc queryCosts) sum(kinds []serve.Kind) (count, reads, writes int64) {
	for _, k := range kinds {
		count += qc.count[string(k)]
		reads += qc.reads[string(k)]
		writes += qc.writes[string(k)]
	}
	return
}

// workPerQuery is asymmetric reads plus ω·writes per query.
func (qc queryCosts) workPerQuery() float64 {
	c, r, w := qc.sum(allKinds)
	return ratio(float64(r+omega*w), float64(c))
}

func (qc queryCosts) fill(out map[string]float64) {
	for _, k := range allKinds {
		c := float64(qc.count[string(k)])
		out["asym.reads_per_query."+string(k)] = ratio(float64(qc.reads[string(k)]), c)
		out["asym.writes_per_query."+string(k)] = ratio(float64(qc.writes[string(k)]), c)
	}
	c, r, _ := qc.sum(connKinds)
	out["conn.reads_per_query"] = ratio(float64(r), float64(c))
	c, r, _ = qc.sum(biccKinds)
	out["bicc.reads_per_query"] = ratio(float64(r), float64(c))
}

// updateLedger accounts the scripted updates: what each publish wrote,
// what the query-triggered builds it caused wrote, and which rung every
// oracle took. It is fed Stats reads taken right after each update and
// right after the window's queries.
type updateLedger struct {
	updates    int
	writes     int64 // publish-path plus lazy-build writes
	overlay    int64 // CSR writes of the publish path
	lazyBuilds int64
	chainDepth int64
	strategies map[string]int64 // "oracle.strategy" -> count
}

func newLedger() *updateLedger { return &updateLedger{strategies: map[string]int64{}} }

// published accounts one update from the Stats read just before it and
// the one just after it published.
func (l *updateLedger) published(before, after serve.Stats) {
	l.updates++
	l.chainDepth += int64(after.ConnChainDepth)
	for _, r := range after.Rebuilds {
		if r.Epoch <= before.Epoch || r.Err != "" {
			continue
		}
		l.overlay += r.GraphCost.Writes
		l.writes += r.GraphCost.Writes
		for _, c := range r.OracleCosts {
			l.writes += c.Writes
		}
	}
	for oracleName, m := range after.Strategies {
		for s, n := range m {
			l.strategies[oracleName+"."+s] += n - before.Strategies[oracleName][s]
		}
	}
}

// queried accounts the lazy builds a window's queries triggered: each
// oracle whose built epoch advanced was rebuilt on the query path, and its
// build cost is the snapshot's build cost for it.
func (l *updateLedger) queried(before, after serve.Stats) {
	if after.LazyRebuilds == before.LazyRebuilds {
		return
	}
	l.lazyBuilds += after.LazyRebuilds - before.LazyRebuilds
	for name, ep := range after.OracleEpochs {
		if ep != before.OracleEpochs[name] {
			l.writes += after.BuildCosts[name].Writes
		}
	}
}

func (l *updateLedger) fill(out map[string]float64) {
	u := float64(l.updates)
	out["serve.lazy.builds_per_update"] = ratio(float64(l.lazyBuilds), u)
	out["serve.update.conn_chain_depth"] = ratio(float64(l.chainDepth), u)
	out["graph.overlay_writes_per_update"] = ratio(float64(l.overlay), u)
	for _, k := range strategyKeys {
		out["serve.update.strategy."+k[0]+"."+k[1]] = float64(l.strategies[k[0]+"."+k[1]])
	}
}

// memWindow brackets a measured interval with runtime allocator readings.
type memWindow struct{ a runtime.MemStats }

func startMem() *memWindow {
	w := &memWindow{}
	runtime.ReadMemStats(&w.a)
	return w
}

func (w *memWindow) fill(queries int64, out map[string]float64) {
	var b runtime.MemStats
	runtime.ReadMemStats(&b)
	out["runtime.allocs_per_query"] = ratio(float64(b.Mallocs-w.a.Mallocs), float64(queries))
	out["runtime.alloc_bytes_per_query"] = ratio(float64(b.TotalAlloc-w.a.TotalAlloc), float64(queries))
	out["runtime.gc_pause_ms"] = float64(b.PauseTotalNs-w.a.PauseTotalNs) / 1e6
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
