package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// bench mode: the recorded performance trajectory. -exp bench sweeps graph
// size × query mix × workload family over the serving engine (in-process
// serve.Engine.Do) and the HTTP surface (/batch), and emits schema-stable
// BENCH_<experiment>.json files: QPS, batch-latency percentiles, allocs and
// bytes per query (runtime.MemStats deltas), and per-kind asymmetric
// read/write work. The sweep is pinned — fixed graph seeds, fixed query
// seeds, a fixed size ladder — so `make bench-record` regenerates the
// committed files reproducibly; the deterministic fields (graph shape,
// asymmetric costs) are bit-stable while timing fields vary by machine.
// docs/benchmark.md is the methodology page: schema glossary, how to read
// the curves, and the before/after rule for perf PRs.
//
// With -benchbase FILE the run also prints before/after deltas of the
// engine sweep against an earlier BENCH_query_hot_path.json — typically one
// `make bench-baseline REV=<rev>` recorded from a worktree of the merge
// base, so a before/after pair costs no product code.
var (
	benchOut         = flag.String("benchout", ".", "bench mode: directory BENCH_*.json files are written to")
	benchSizes       = flag.String("benchsizes", "4096,8192,16384", "bench mode: comma-separated graph sizes (each multiplied by -scale)")
	benchQueries     = flag.Int("benchqueries", 4096, "bench mode: queries per sweep point (engine sweep)")
	benchBatch       = flag.Int("benchbatch", 256, "bench mode: queries per batch")
	benchOmega       = flag.Int("benchomega", 64, "bench mode: asymmetric write cost ω")
	benchBase        = flag.String("benchbase", "", "bench mode: earlier BENCH_query_hot_path.json to print before/after deltas against (see make bench-baseline)")
	benchHTTPQueries = flag.Int("benchhttpqueries", 4096, "bench mode: queries per sweep point (HTTP sweep)")
	benchHTTPConc    = flag.Int("benchhttpconc", 4, "bench mode: concurrent HTTP clients")
	benchDist        = flag.String("benchdist", "uniform", "bench mode: query endpoint distribution, uniform or zipf (hot-pair skew; exercises the result cache)")
)

// benchSchemaVersion is the version stamped into every BENCH file. Any
// change to the JSON shape — fields added, removed, renamed, or retyped —
// must bump it; the golden-file test (bench_test.go) enforces that.
//
// v4 dropped the in-tree baseline sweep, its config flag and the "legacy"
// dispatch value: baselines come from earlier revisions via make
// bench-baseline and -benchbase (docs/benchmark.md has the history).
const benchSchemaVersion = 4

// The pinned sweep axes. Families shape the workload: uniform is a random
// 3-regular graph, powerlaw a degree-bounded preferential-attachment graph
// (the §6 transform), churn the uniform graph with concurrent edge updates
// staged during measurement. Mixes pick the query families: conn is the
// cheap O(√ω)-read connectivity family, bicc the expensive O(ω)-read
// biconnectivity family, mixed a 50/50 draw.
var (
	benchFamilies = []string{"uniform", "powerlaw", "churn"}
	benchMixes    = []string{"conn", "bicc", "mixed"}
)

// Fixed seeds: graph generation and query streams are deterministic per
// sweep point, so reruns replay identical work.
const (
	benchGraphSeedUniform  = 71
	benchGraphSeedPowerLaw = 99
	benchEngineSeed        = 7
	benchQuerySeedBase     = 211
	benchChurnSeedBase     = 977
)

// benchDoc is one BENCH_<experiment>.json file.
type benchDoc struct {
	SchemaVersion int          `json:"schema_version"`
	Experiment    string       `json:"experiment"`
	Description   string       `json:"description"`
	Config        benchConfig  `json:"config"`
	Points        []benchPoint `json:"points"`
}

// benchConfig records the sweep spec a document was produced under — the
// reproducibility contract of make bench-record.
type benchConfig struct {
	// Dispatch names the measured path: "fast" (in-process Engine.Do over
	// the zero-alloc Engine.dispatch path) or "http" (the full HTTP
	// /batch surface over the same path).
	Dispatch        string   `json:"dispatch"`
	Omega           int      `json:"omega"`
	K               int      `json:"k"`
	Seed            uint64   `json:"seed"`
	QueriesPerPoint int      `json:"queries_per_point"`
	BatchSize       int      `json:"batch_size"`
	Sizes           []int    `json:"sizes"`
	Families        []string `json:"families"`
	Mixes           []string `json:"mixes"`
	// QueryDist names the endpoint distribution of the query streams:
	// "uniform" (independent uniform endpoints, the committed-file default)
	// or "zipf" (endpoints drawn from a pregenerated hot-pair table under a
	// Zipf-like rank weighting — the cache-effectiveness workload).
	QueryDist string `json:"query_dist"`
	// GoMaxProcs is the worker parallelism the timing fields were measured
	// under (machine-dependent, recorded for interpretation).
	GoMaxProcs int `json:"gomaxprocs"`
	// HTTPClients is the concurrent-client count of the HTTP sweep (0 for
	// engine sweeps).
	HTTPClients int `json:"http_clients,omitempty"`
}

// benchPoint is one sweep point: one (size, family, mix) cell's measured
// curve sample.
type benchPoint struct {
	Family  string `json:"family"`
	Mix     string `json:"mix"`
	N       int    `json:"n"`
	M       int    `json:"m"`
	Queries int64  `json:"queries"`
	// QPS and LatencyNs are wall-clock (machine-dependent).
	QPS       float64      `json:"qps"`
	LatencyNs benchLatency `json:"latency_ns"`
	// AllocsPerQuery/BytesPerQuery are runtime.MemStats deltas across the
	// measurement window divided by the query count. Omitted for the churn
	// family, where concurrent rebuild allocations would be misattributed
	// to the query path.
	AllocsPerQuery *float64 `json:"allocs_per_query,omitempty"`
	BytesPerQuery  *float64 `json:"bytes_per_query,omitempty"`
	// Asym is the deterministic cost-model telemetry per served kind:
	// asymmetric reads/writes/work per query (Stats deltas).
	Asym map[string]benchAsym `json:"asym"`
	// ChurnBatches counts update batches staged during a churn point's
	// measurement window (0 elsewhere); ChurnBatchesPerSec is that count
	// over the window's wall clock — the staged update throughput.
	ChurnBatches       int64   `json:"churn_batches,omitempty"`
	ChurnBatchesPerSec float64 `json:"churn_batches_per_sec,omitempty"`
	// ChurnEpochs counts the epochs the rebuild loop published for those
	// batches (coalescing makes it <= ChurnBatches); RebuildStrategies is
	// the per-oracle strategy histogram over those publishes (oracle ->
	// strategy -> count) and RebuildWritesPerBatch each oracle's mean
	// publish-path asymmetric writes per published epoch. These are the
	// before/after axis of publish-path work: a deferred (lazy) bicc writes
	// nothing there, a rebuilt one pays a full build per publish.
	ChurnEpochs           int64                       `json:"churn_epochs,omitempty"`
	RebuildStrategies     map[string]map[string]int64 `json:"rebuild_strategies,omitempty"`
	RebuildWritesPerBatch map[string]float64          `json:"rebuild_writes_per_batch,omitempty"`
}

// benchLatency is the nearest-rank batch-latency digest in nanoseconds.
type benchLatency struct {
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	P95 int64 `json:"p95"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

// benchAsym is per-query asymmetric cost for one kind.
type benchAsym struct {
	Queries       int64   `json:"queries"`
	ReadsPerQuery float64 `json:"reads_per_query"`
	WritesPerQ    float64 `json:"writes_per_query"`
	WorkPerQuery  float64 `json:"work_per_query"`
}

// benchRun is the wecbench runner for -exp bench.
func benchRun(scale int) {
	header("Bench", "recorded perf trajectory: engine + HTTP sweeps -> BENCH_*.json")
	sizes, err := parseBenchSizes(*benchSizes, scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	switch *benchDist {
	case "uniform", "zipf":
	default:
		fmt.Fprintf(os.Stderr, "bench: unknown -benchdist %q (want uniform or zipf)\n", *benchDist)
		os.Exit(2)
	}

	var base benchDoc
	if *benchBase != "" {
		if base, err = readBenchBase(*benchBase); err != nil {
			fmt.Fprintf(os.Stderr, "bench: -benchbase: %v\n", err)
			os.Exit(2)
		}
	}

	doc := benchEngineSweep(sizes)
	emitBench(doc)
	if *benchBase != "" {
		benchCompare(base, doc)
	}
	emitBench(benchHTTPSweep(sizes))
}

// readBenchBase loads the -benchbase document: an engine-sweep file from an
// earlier run. Any schema version is accepted — fields a newer schema
// dropped are ignored, and ones an older file lacks read as zero, which
// benchCompare prints as "-" or skips.
func readBenchBase(path string) (benchDoc, error) {
	var d benchDoc
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %v", path, err)
	}
	if d.Experiment != "query_hot_path" || len(d.Points) == 0 {
		return d, fmt.Errorf("%s: want a query_hot_path document with points, got experiment %q with %d points", path, d.Experiment, len(d.Points))
	}
	return d, nil
}

// emitBench validates and writes one document, exiting nonzero on either
// failure — CI treats a malformed BENCH file as a broken build.
func emitBench(doc benchDoc) {
	if err := validateBenchDoc(doc); err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAILED — invalid %s document: %v\n", doc.Experiment, err)
		os.Exit(1)
	}
	path, err := writeBenchFile(*benchOut, doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: FAILED — %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d points)\n", path, len(doc.Points))
}

// benchCompare prints the headline before/after deltas between a baseline
// engine sweep and the current one (matched points only).
func benchCompare(base, cur benchDoc) {
	type key struct {
		family, mix string
		n           int
	}
	idx := map[key]benchPoint{}
	for _, p := range base.Points {
		idx[key{p.Family, p.Mix, p.N}] = p
	}
	fmt.Printf("\n%-9s %-6s %8s | %13s %13s | %10s %10s\n",
		"family", "mix", "n", "allocs/q", "bytes/q", "p95", "QPS")
	for _, p := range cur.Points {
		lp, ok := idx[key{p.Family, p.Mix, p.N}]
		if !ok {
			continue
		}
		allocs, bytes := "-", "-"
		if p.AllocsPerQuery != nil && lp.AllocsPerQuery != nil {
			allocs = fmt.Sprintf("%.1f→%.1f", *lp.AllocsPerQuery, *p.AllocsPerQuery)
			bytes = fmt.Sprintf("%.0f→%.0f", *lp.BytesPerQuery, *p.BytesPerQuery)
		}
		fmt.Printf("%-9s %-6s %8d | %13s %13s | %9.2fx %9.2fx\n",
			p.Family, p.Mix, p.N, allocs, bytes,
			float64(lp.LatencyNs.P95)/float64(p.LatencyNs.P95),
			p.QPS/lp.QPS)
	}
	// The churn family's publish-cost story: total publish-path writes per
	// published epoch, baseline vs current. The bicc column is where a
	// change to rebuild deferral shows.
	printed := false
	for _, p := range cur.Points {
		if p.Family != "churn" || len(p.RebuildWritesPerBatch) == 0 {
			continue
		}
		lp, ok := idx[key{p.Family, p.Mix, p.N}]
		if !ok || len(lp.RebuildWritesPerBatch) == 0 {
			continue
		}
		if !printed {
			fmt.Printf("\n%-9s %-6s %8s | %16s %16s | %10s\n",
				"family", "mix", "n", "bicc wr/epoch", "total wr/epoch", "cost drop")
			printed = true
		}
		var ltot, ftot float64
		for _, w := range lp.RebuildWritesPerBatch {
			ltot += w
		}
		for _, w := range p.RebuildWritesPerBatch {
			ftot += w
		}
		drop := "-"
		switch {
		case ftot > 0:
			drop = fmt.Sprintf("%.1fx", ltot/ftot)
		case ltot > 0:
			drop = "inf"
		}
		fmt.Printf("%-9s %-6s %8d | %7.0f→%-8.0f %7.0f→%-8.0f | %10s\n",
			p.Family, p.Mix, p.N,
			lp.RebuildWritesPerBatch["bicc"], p.RebuildWritesPerBatch["bicc"],
			ltot, ftot, drop)
	}
}

// parseBenchSizes parses the -benchsizes ladder, multiplying by scale.
func parseBenchSizes(spec string, scale int) ([]int, error) {
	var sizes []int
	for _, f := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -benchsizes entry %q", f)
		}
		sizes = append(sizes, n*scale)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("-benchsizes is empty")
	}
	return sizes, nil
}

// benchGraph builds the pinned workload graph of one (family, size) cell.
func benchGraph(family string, n int) *graph.Graph {
	switch family {
	case "powerlaw":
		return graph.BoundDegree(graph.PowerLaw(n, 4, benchGraphSeedPowerLaw), 3).G
	default: // uniform, churn
		return graph.RandomRegular(n, 3, benchGraphSeedUniform)
	}
}

// mixFrac maps a mix name to its connectivity-family fraction.
func mixFrac(mix string) float64 {
	switch mix {
	case "conn":
		return 1.0
	case "bicc":
		return 0.0
	default:
		return 0.5
	}
}

// benchZipfSeedMix decorrelates the zipf hot-pair table's rng from the
// query stream's kind draws (which stay on the point seed), so switching
// -benchdist never perturbs the kind sequence.
const benchZipfSeedMix = 0x51bf

// benchZipfExponent is the rank-weight exponent: pair at rank r (1-based)
// is drawn with weight 1/r^1.2 — a mild Zipf skew where the top handful of
// pairs dominate but the tail still gets traffic.
const benchZipfExponent = 1.2

// benchZipfPairs draws query endpoints from a pregenerated table of n
// (u, v) pairs under a Zipf-like rank weighting, via inverse-CDF lookup on
// the prefix-summed weights. Hot pairs repeat across batches, so the
// serving layer's result cache (and bicc's cluster cache) answer most of
// the stream — the workload -benchdist=zipf exists to measure.
type benchZipfPairs struct {
	pairs  [][2]int32
	prefix []float64
	rng    *graph.RNG
}

func newBenchZipfPairs(seed uint64, n int) *benchZipfPairs {
	rng := graph.NewRNG(seed)
	z := &benchZipfPairs{
		pairs:  make([][2]int32, n),
		prefix: make([]float64, n),
		rng:    rng,
	}
	sum := 0.0
	for i := range z.pairs {
		z.pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		sum += 1 / math.Pow(float64(i+1), benchZipfExponent)
		z.prefix[i] = sum
	}
	return z
}

func (z *benchZipfPairs) pick() (u, v int32) {
	x := z.rng.Float64() * z.prefix[len(z.prefix)-1]
	i := sort.SearchFloat64s(z.prefix, x)
	if i >= len(z.pairs) {
		i = len(z.pairs) - 1
	}
	return z.pairs[i][0], z.pairs[i][1]
}

// benchBatches pregenerates the whole query stream of one point, so no
// query-generation allocations land inside the measurement window. dist
// selects the endpoint distribution ("uniform" or "zipf"); the uniform
// path's rng call sequence is unchanged from schema v1, so uniform streams
// replay byte-identically across the version bump.
func benchBatches(seed uint64, n, total, batch int, frac float64, dist string) [][]serve.Query {
	rng := graph.NewRNG(seed)
	var zipf *benchZipfPairs
	if dist == "zipf" {
		zipf = newBenchZipfPairs(seed^benchZipfSeedMix, n)
	}
	out := make([][]serve.Query, 0, (total+batch-1)/batch)
	for done := 0; done < total; done += batch {
		b := batch
		if total-done < b {
			b = total - done
		}
		qs := make([]serve.Query, b)
		for i := range qs {
			var kind serve.Kind
			if rng.Float64() < frac {
				kind = connKinds[rng.Intn(len(connKinds))]
			} else {
				kind = biccKinds[rng.Intn(len(biccKinds))]
			}
			var u, v int32
			if zipf != nil {
				u, v = zipf.pick()
			} else {
				u, v = int32(rng.Intn(n)), int32(rng.Intn(n))
			}
			qs[i] = serve.Query{Kind: kind, U: u, V: v}
		}
		out = append(out, qs)
	}
	return out
}

// benchEngineSweep measures the in-process serving hot path (Engine.Do)
// across the full size × family × mix grid.
func benchEngineSweep(sizes []int) benchDoc {
	doc := benchDoc{
		SchemaVersion: benchSchemaVersion,
		Experiment:    "query_hot_path",
		Description:   "in-process serve.Engine.Do over the zero-alloc QueryOracle.Answer dispatch path with deferred (lazy) bicc rebuilds",
		Config: benchConfig{
			Dispatch:        "fast",
			Omega:           *benchOmega,
			Seed:            benchEngineSeed,
			QueriesPerPoint: *benchQueries,
			BatchSize:       *benchBatch,
			Sizes:           sizes,
			Families:        benchFamilies,
			Mixes:           benchMixes,
			QueryDist:       *benchDist,
			GoMaxProcs:      runtime.GOMAXPROCS(0),
		},
	}
	fmt.Printf("\nengine sweep: %d sizes × %d families × %d mixes, %d queries/point, ω=%d\n",
		len(sizes), len(benchFamilies), len(benchMixes), *benchQueries, *benchOmega)
	fmt.Printf("%-9s %-6s %8s %8s | %10s %10s %10s | %9s %10s\n",
		"family", "mix", "n", "m", "QPS", "p50", "p95", "allocs/q", "bytes/q")
	for si, n := range sizes {
		for fi, family := range benchFamilies {
			g := benchGraph(family, n)
			cfg := serve.Config{Omega: *benchOmega, Seed: benchEngineSeed}
			var accum *benchRebuildAccum
			if family == "churn" {
				accum = &benchRebuildAccum{}
				cfg.OnRebuild = accum.add
			}
			eng := serve.New(g, cfg)
			doc.Config.K = eng.K()
			for mi, mix := range benchMixes {
				seed := uint64(benchQuerySeedBase + 97*si + 13*fi + mi)
				p := benchMeasurePoint(eng, family, mix, seed, accum)
				doc.Points = append(doc.Points, p)
				allocs, bytes := "-", "-"
				if p.AllocsPerQuery != nil {
					allocs = fmt.Sprintf("%.2f", *p.AllocsPerQuery)
					bytes = fmt.Sprintf("%.0f", *p.BytesPerQuery)
				}
				fmt.Printf("%-9s %-6s %8d %8d | %10.0f %10v %10v | %9s %10s\n",
					family, mix, p.N, p.M, p.QPS,
					time.Duration(p.LatencyNs.P50).Round(time.Microsecond),
					time.Duration(p.LatencyNs.P95).Round(time.Microsecond),
					allocs, bytes)
			}
			eng.Close()
		}
	}
	return doc
}

// benchMeasurePoint runs one point's pregenerated query stream against the
// engine and digests the window: latency percentiles and QPS from the batch
// loop, allocs/bytes per query from MemStats deltas (skipped under churn),
// per-kind asymmetric costs from Stats deltas, and — for the churn family —
// the update-throughput digest from the OnRebuild accumulator. A point with
// query errors aborts the run — the harness doubles as a correctness gate.
func benchMeasurePoint(eng *serve.Engine, family, mix string, seed uint64, accum *benchRebuildAccum) benchPoint {
	n := eng.Graph().N()
	total := *benchQueries
	batches := benchBatches(seed, n, total, *benchBatch, mixFrac(mix), *benchDist)
	churn := family == "churn"

	before := eng.Stats()
	lat := make([]time.Duration, 0, len(batches))
	var ch *benchChurner
	if churn {
		accum.take() // drop records from a previous point's tail
		ch = startBenchChurner(eng, n, seed+benchChurnSeedBase)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, qs := range batches {
		t0 := time.Now()
		eng.Do(qs)
		lat = append(lat, time.Since(t0))
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if ch != nil {
		ch.stopAndWait()
		// Drain staged-but-unpublished batches so the rebuild telemetry
		// below accounts every batch the window staged.
		deadline := time.Now().Add(5 * time.Second)
		for eng.Stats().PendingUpdates > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	after := eng.Stats()

	p := benchPoint{
		Family:  family,
		Mix:     mix,
		N:       before.GraphN,
		M:       before.GraphM,
		Queries: int64(total),
		Asym:    map[string]benchAsym{},
	}
	sum := summarize(lat, int64(total), wall)
	p.QPS = sum.QPS
	p.LatencyNs = benchLatency{
		P50: int64(sum.P50), P90: int64(sum.P90), P95: int64(sum.P95),
		P99: int64(sum.P99), Max: int64(sum.Max),
	}
	if !churn {
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(total)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(total)
		p.AllocsPerQuery = &allocs
		p.BytesPerQuery = &bytes
	} else {
		p.ChurnBatches = ch.batches.Load()
		p.ChurnBatchesPerSec = float64(p.ChurnBatches) / wall.Seconds()
		recs := accum.take()
		p.ChurnEpochs = int64(len(recs))
		if len(recs) > 0 {
			p.RebuildStrategies = map[string]map[string]int64{}
			writes := map[string]int64{}
			for _, rec := range recs {
				for o, s := range rec.Strategies {
					if p.RebuildStrategies[o] == nil {
						p.RebuildStrategies[o] = map[string]int64{}
					}
					p.RebuildStrategies[o][s]++
				}
				for o, c := range rec.OracleCosts {
					writes[o] += c.Writes
				}
			}
			p.RebuildWritesPerBatch = map[string]float64{}
			for o, w := range writes {
				p.RebuildWritesPerBatch[o] = float64(w) / float64(len(recs))
			}
		}
	}
	var errs int64
	for kind, a := range after.Queries {
		b := before.Queries[kind]
		count := a.Count - b.Count
		errs += a.Errors - b.Errors
		if count == 0 {
			continue
		}
		p.Asym[kind] = benchAsym{
			Queries:       count,
			ReadsPerQuery: float64(a.Cost.Reads-b.Cost.Reads) / float64(count),
			WritesPerQ:    float64(a.Cost.Writes-b.Cost.Writes) / float64(count),
			WorkPerQuery:  float64(a.Cost.Work()-b.Cost.Work()) / float64(count),
		}
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "bench: FAILED — %d query errors at family=%s mix=%s n=%d\n",
			errs, family, mix, n)
		os.Exit(1)
	}
	return p
}

// benchRebuildAccum collects the publish-path rebuild records of one churn
// point's window via serve.Config.OnRebuild (called from the engine's
// rebuild goroutine, hence the lock).
type benchRebuildAccum struct {
	mu   sync.Mutex
	recs []serve.RebuildRecord
}

func (a *benchRebuildAccum) add(rec serve.RebuildRecord) {
	a.mu.Lock()
	a.recs = append(a.recs, rec)
	a.mu.Unlock()
}

// take returns the accumulated records and resets the accumulator.
func (a *benchRebuildAccum) take() []serve.RebuildRecord {
	a.mu.Lock()
	recs := a.recs
	a.recs = nil
	a.mu.Unlock()
	return recs
}

// benchChurner stages small edge-update batches against the engine while a
// churn point measures, alternating an add batch with the removal of the
// same edges so the graph's size stays near its seed.
type benchChurner struct {
	stop    chan struct{}
	done    chan struct{}
	batches atomic.Int64
}

func startBenchChurner(eng *serve.Engine, n int, seed uint64) *benchChurner {
	c := &benchChurner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		rng := graph.NewRNG(seed)
		var pending [][2]int32
		for {
			select {
			case <-c.stop:
				return
			default:
			}
			if pending == nil {
				edges := make([][2]int32, 8)
				for i := range edges {
					edges[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
				}
				if _, err := eng.Update(serve.Update{Add: edges}, false); err == nil {
					pending = edges
				}
			} else {
				if _, err := eng.Update(serve.Update{Remove: pending}, false); err == nil {
					pending = nil
				}
			}
			c.batches.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	return c
}

func (c *benchChurner) stopAndWait() {
	close(c.stop)
	<-c.done
}

// benchHTTPSweep measures the full HTTP surface: an in-process oracled
// server per size over the uniform family, driven with concurrent /batch
// clients on the mixed query mix.
func benchHTTPSweep(sizes []int) benchDoc {
	doc := benchDoc{
		SchemaVersion: benchSchemaVersion,
		Experiment:    "serve_http",
		Description:   "HTTP /batch surface: in-process oracled server, concurrent clients, mixed query mix",
		Config: benchConfig{
			Dispatch:        "http",
			Omega:           *benchOmega,
			Seed:            benchEngineSeed,
			QueriesPerPoint: *benchHTTPQueries,
			BatchSize:       *benchBatch,
			Sizes:           sizes,
			Families:        []string{"uniform"},
			Mixes:           []string{"mixed"},
			QueryDist:       *benchDist,
			GoMaxProcs:      runtime.GOMAXPROCS(0),
			HTTPClients:     *benchHTTPConc,
		},
	}
	fmt.Printf("\nHTTP sweep: %d sizes, %d queries/point, %d clients\n",
		len(sizes), *benchHTTPQueries, *benchHTTPConc)
	fmt.Printf("%8s %8s | %10s %10s %10s\n", "n", "m", "QPS", "p50", "p95")
	for _, n := range sizes {
		g := benchGraph("uniform", n)
		eng := serve.New(g, serve.Config{Omega: *benchOmega, Seed: benchEngineSeed})
		doc.Config.K = eng.K()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: listen: %v\n", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: serve.NewServer(eng)}
		go srv.Serve(ln)
		base := "http://" + ln.Addr().String()

		before := eng.Stats()
		total := int64(*benchHTTPQueries)
		var sent, answered atomic.Int64
		var failed atomic.Bool
		var mu sync.Mutex
		var lat []time.Duration
		var wg sync.WaitGroup
		start := time.Now()
		for cl := 0; cl < *benchHTTPConc; cl++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				rng := graph.NewRNG(uint64(benchQuerySeedBase + 1000 + client))
				var local []time.Duration
				defer func() {
					mu.Lock()
					lat = append(lat, local...)
					mu.Unlock()
				}()
				for {
					remaining := total - sent.Add(int64(*benchBatch))
					batch := *benchBatch
					if remaining < 0 {
						batch += int(remaining)
						if batch <= 0 {
							break
						}
					}
					qs := benchBatches(rng.Next(), g.N(), batch, batch, 0.5, *benchDist)[0]
					t0 := time.Now()
					if err := postBatch(base, qs); err != nil {
						fmt.Fprintf(os.Stderr, "bench: batch failed: %v\n", err)
						failed.Store(true)
						return
					}
					local = append(local, time.Since(t0))
					answered.Add(int64(batch))
					if remaining <= 0 {
						break
					}
				}
			}(cl)
		}
		wg.Wait()
		wall := time.Since(start)
		srv.Close()
		if failed.Load() || answered.Load() < total {
			fmt.Fprintf(os.Stderr, "bench: FAILED — only %d/%d HTTP queries answered at n=%d\n",
				answered.Load(), total, n)
			os.Exit(1)
		}
		after := eng.Stats()
		p := benchPoint{
			Family:  "uniform",
			Mix:     "mixed",
			N:       before.GraphN,
			M:       before.GraphM,
			Queries: total,
			Asym:    map[string]benchAsym{},
		}
		sum := summarize(lat, total, wall)
		p.QPS = sum.QPS
		p.LatencyNs = benchLatency{
			P50: int64(sum.P50), P90: int64(sum.P90), P95: int64(sum.P95),
			P99: int64(sum.P99), Max: int64(sum.Max),
		}
		for kind, a := range after.Queries {
			b := before.Queries[kind]
			count := a.Count - b.Count
			if count == 0 {
				continue
			}
			p.Asym[kind] = benchAsym{
				Queries:       count,
				ReadsPerQuery: float64(a.Cost.Reads-b.Cost.Reads) / float64(count),
				WritesPerQ:    float64(a.Cost.Writes-b.Cost.Writes) / float64(count),
				WorkPerQuery:  float64(a.Cost.Work()-b.Cost.Work()) / float64(count),
			}
		}
		doc.Points = append(doc.Points, p)
		fmt.Printf("%8d %8d | %10.0f %10v %10v\n",
			p.N, p.M, p.QPS,
			time.Duration(p.LatencyNs.P50).Round(time.Microsecond),
			time.Duration(p.LatencyNs.P95).Round(time.Microsecond))
	}
	return doc
}

// validateBenchDoc checks the schema invariants every emitted document must
// satisfy; CI's bench-smoke job runs the emitted files back through this.
func validateBenchDoc(d benchDoc) error {
	if d.SchemaVersion != benchSchemaVersion {
		return fmt.Errorf("schema_version %d, want %d", d.SchemaVersion, benchSchemaVersion)
	}
	if d.Experiment == "" {
		return fmt.Errorf("empty experiment name")
	}
	switch d.Config.Dispatch {
	case "fast", "http":
	default:
		return fmt.Errorf("unknown dispatch %q", d.Config.Dispatch)
	}
	switch d.Config.QueryDist {
	case "uniform", "zipf":
	default:
		return fmt.Errorf("unknown query_dist %q", d.Config.QueryDist)
	}
	if d.Config.Omega <= 0 || d.Config.K <= 0 || len(d.Config.Sizes) == 0 {
		return fmt.Errorf("incomplete config: %+v", d.Config)
	}
	if len(d.Points) == 0 {
		return fmt.Errorf("no points")
	}
	want := len(d.Config.Sizes) * len(d.Config.Families) * len(d.Config.Mixes)
	if len(d.Points) != want {
		return fmt.Errorf("%d points, want %d (sizes × families × mixes)", len(d.Points), want)
	}
	for i, p := range d.Points {
		if p.N <= 0 || p.M < 0 || p.Queries <= 0 || p.QPS <= 0 {
			return fmt.Errorf("point %d: non-positive shape/throughput: %+v", i, p)
		}
		l := p.LatencyNs
		if l.P50 < 0 || l.P50 > l.P90 || l.P90 > l.P95 || l.P95 > l.P99 || l.P99 > l.Max {
			return fmt.Errorf("point %d: latency percentiles not monotone: %+v", i, l)
		}
		if (p.AllocsPerQuery == nil) != (p.BytesPerQuery == nil) {
			return fmt.Errorf("point %d: allocs/bytes must be set together", i)
		}
		if p.AllocsPerQuery != nil && (*p.AllocsPerQuery < 0 || *p.BytesPerQuery < 0) {
			return fmt.Errorf("point %d: negative alloc stats", i)
		}
		if p.Family == "churn" {
			if p.ChurnBatches <= 0 || p.ChurnBatchesPerSec <= 0 {
				return fmt.Errorf("point %d: churn point without update throughput (batches=%d, batches/sec=%g)",
					i, p.ChurnBatches, p.ChurnBatchesPerSec)
			}
			if (p.ChurnEpochs == 0) != (len(p.RebuildStrategies) == 0) ||
				(p.ChurnEpochs == 0) != (len(p.RebuildWritesPerBatch) == 0) {
				return fmt.Errorf("point %d: rebuild telemetry inconsistent with %d published epochs", i, p.ChurnEpochs)
			}
			for o, w := range p.RebuildWritesPerBatch {
				if w < 0 {
					return fmt.Errorf("point %d: negative publish writes for oracle %s", i, o)
				}
			}
		} else if p.ChurnBatches != 0 || p.ChurnBatchesPerSec != 0 || p.ChurnEpochs != 0 ||
			len(p.RebuildStrategies) != 0 || len(p.RebuildWritesPerBatch) != 0 {
			return fmt.Errorf("point %d: churn telemetry on family %q", i, p.Family)
		}
		if len(p.Asym) == 0 {
			return fmt.Errorf("point %d: no asym telemetry", i)
		}
		var covered int64
		for kind, a := range p.Asym {
			if a.Queries <= 0 || a.ReadsPerQuery < 0 || a.WorkPerQuery < 0 {
				return fmt.Errorf("point %d kind %s: bad asym entry %+v", i, kind, a)
			}
			covered += a.Queries
		}
		if covered != p.Queries {
			return fmt.Errorf("point %d: asym covers %d of %d queries", i, covered, p.Queries)
		}
	}
	return nil
}

// writeBenchFile marshals the document to <dir>/BENCH_<experiment>.json
// (indented, trailing newline — committed files must diff cleanly).
func writeBenchFile(dir string, d benchDoc) (string, error) {
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return "", err
	}
	buf = append(buf, '\n')
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "BENCH_"+d.Experiment+".json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
