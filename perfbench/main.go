// Command perfbench is the repository's benchmark: four closed-loop
// workloads that drive the serving stack through its public API, check
// every answer, and report end-to-end metrics (untraced runs) or per-layer
// metrics (traced runs). See METHODOLOGY.md.
//
// One run:
//
//	perfbench --workload http-conn --seed 1 --seconds 10 --trace 0
//
// prints diagnostics on stderr, a {"detail": ...} line and, as the last
// line of standard output, {"correct", "attempted", "failed", "metrics"}.
// --repeat N runs a workload N times untraced and once traced in child
// processes and prints each metric's quartiles; --determinism runs it twice
// at one seed and compares the counted metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// setupReps is how many times an untraced run sets its graph up; setup_s
// is the median.
const setupReps = 3

// The update probe that follows a read workload's timed loop: 40 updates
// (enough for the tail rule to settle on p75) of 16 edges, as in churn.
const (
	probeUpdates = 40
	probeEdges   = 16
)

func main() {
	var (
		workload    = flag.String("workload", "", "workload name (http-conn, engine-bicc-skew, churn-bicc, churn-conn; \"all\" with --repeat)")
		seed        = flag.Uint64("seed", 1, "input seed: graph, queries and updates")
		secs        = flag.Float64("seconds", 10, "measured time per run")
		trace       = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		outdir      = flag.String("outdir", ".bench_build", "directory for scratch stores and span files")
		repeat      = flag.Int("repeat", 0, "run each workload this many times untraced, then once traced, and print quartiles")
		determinism = flag.Bool("determinism", false, "run the workload twice at --seed and compare counted metrics")
	)
	flag.Parse()
	switch {
	case *repeat > 0:
		os.Exit(repeatMode(*workload, *seed, *secs, *repeat, *outdir))
	case *determinism:
		os.Exit(determinismMode(*workload, *seed, *secs, *outdir))
	}
	s, err := specByName(*workload)
	if err == nil && (*trace != 0 && *trace != 1) {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err == nil && *secs <= 0 {
		err = fmt.Errorf("--seconds must be positive")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := runOnce(s, *seed, time.Duration(*secs*float64(time.Second)), *trace == 1, *outdir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	detail, _ := json.Marshal(map[string]any{"detail": out.detail})
	fmt.Println(string(detail))
	last, _ := json.Marshal(out.result)
	fmt.Println(string(last))
	if !out.result.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", out.result.Failed, out.result.Attempted)
		os.Exit(1)
	}
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type outcome struct {
	result result
	detail map[string]any
}

// run is one invocation's state.
type run struct {
	s      spec
	seed   uint64
	d      time.Duration
	traced bool
	tr     *tracer                // the traced run's recorder (nil untraced)
	active atomic.Pointer[tracer] // tr while a traced stretch runs, else nil

	g       *graph.Graph
	f       *fleet
	queries [][]serve.Query

	tried, failed int64
	e2e, layer    map[string]float64
	detail        map[string]any
}

func runOnce(s spec, seed uint64, d time.Duration, traced bool, outdir string) (*outcome, error) {
	r := &run{s: s, seed: seed, d: d, traced: traced,
		e2e: map[string]float64{}, detail: map[string]any{},
		// Only the HTTP workload has responses to count.
		layer: map[string]float64{"serve.http.resp_bytes_per_query": 0}}
	if traced {
		r.tr = newTracer()
	}
	r.g = makeGraph(s)
	r.detail["workload"], r.detail["seed"], r.detail["graph_n"], r.detail["graph_m"] = s.name, seed, r.g.N(), r.g.M()

	tmp := filepath.Join(outdir, "tmp", fmt.Sprintf("%s-%d", s.name, os.Getpid()))
	defer os.RemoveAll(tmp)
	if err := r.setup(tmp); err != nil {
		return nil, err
	}
	defer r.f.close()
	r.queries = makeQueries(s, r.g, seed)

	var err error
	if s.churn {
		err = r.churn()
	} else {
		err = r.reads()
	}
	if err != nil {
		return nil, err
	}

	out := &outcome{detail: r.detail}
	out.result = result{Attempted: r.tried, Failed: r.failed, Correct: r.failed == 0, Metrics: map[string]metricVal{}}
	r.e2e["ok_ratio"] = 1 - ratio(float64(r.failed), float64(r.tried))
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layer
		r.spanLayers()
		path := filepath.Join(outdir, "spans", fmt.Sprintf("%s-seed%d.json", s.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := r.tr.write(path); err == nil {
				r.detail["spans_file"] = path
			}
		}
	}
	var zero []string
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if v == 0 {
			zero = append(zero, m.Name)
		}
		out.result.Metrics[m.Name] = metricVal{Value: v, Unit: m.Unit}
	}
	if traced {
		r.detail["layers_not_exercised"] = zero
	}
	return out, nil
}

// setup builds the fleet: setupReps times untraced (keeping the last),
// once traced; then it reads the live heap and the build costs.
func (r *run) setup(tmp string) error {
	reps := setupReps
	if r.traced {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		// Each set-up starts from a collected heap, so the garbage of the
		// one before it is not charged to it.
		runtime.GC()
		f, took, err := openFleet(r.g, r.s.churn, filepath.Join(tmp, fmt.Sprint(i)), r.tr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		times = append(times, took.Seconds())
		if i < reps-1 {
			f.close()
			continue
		}
		r.f = f
	}
	_, med, _ := quartiles(times)
	r.e2e["setup_s"] = med
	r.detail["setup_s_each"] = times
	r.e2e["heap_mb"] = liveHeapMB()

	st := r.f.eng.Stats()
	var writes int64
	for name, c := range st.BuildCosts {
		writes += c.Writes
		r.layer["asym.build_writes."+name] = float64(c.Writes)
	}
	r.e2e["build_writes"] = float64(writes)
	if r.traced {
		tracedBuilds(r.tr, r.g)
	}
	return nil
}

// measured runs a timed stretch. Untraced runs measure it once for the
// whole duration; traced runs measure half untraced, then half traced with
// /metrics scraped and the allocator read around it, and report the
// throughput difference as tracing overhead. The returned stats are the
// stretch the run's figures come from.
func measured[T interface{ loop() loopStats }](r *run, stretch func(time.Duration) (T, error)) (T, *window, error) {
	// Each stretch starts from a collected heap, so garbage left by set-up
	// or by the stretch before is not charged to it.
	if !r.traced {
		runtime.GC()
		c0 := cpuSeconds()
		st, err := stretch(r.d)
		r.detail["loop_cpu_s"], r.detail["loop_wall_s"] = cpuSeconds()-c0, st.loop().elapsed.Seconds()
		return st, nil, err
	}
	runtime.GC()
	un, err := stretch(r.d / 2)
	if err != nil {
		return un, nil, err
	}
	a, err := scrapeMetrics(r.f.met)
	if err != nil {
		return un, nil, err
	}
	runtime.GC()
	mem := startMem()
	r.active.Store(r.tr)
	st, err := stretch(r.d / 2)
	r.active.Store(nil)
	if err != nil {
		return st, nil, err
	}
	mem.fill(st.loop().queries, r.layer)
	r.layer["trace.overhead_pct"] = (1 - ratio(st.loop().qps, un.loop().qps)) * 100
	return st, &window{a: a}, nil
}

func (l loopStats) loop() loopStats { return l }

func (r *run) reads() error {
	rs := &readState{s: r.s, first: make([][]int32, r.s.batches)}
	var hb *httpBench
	if r.s.http {
		var err error
		if hb, err = startHTTP(r.f.reg, r.queries, r.s.callers, &r.active); err != nil {
			return err
		}
		defer hb.stop()
		rs.call = hb.caller()
	} else {
		rs.call = engineCaller(r.f.eng, r.queries, &r.active)
	}

	// The warm-up pass runs the whole stream once; it fills the caches and
	// is the fixed set of queries the counted metrics are taken over.
	before := r.f.eng.Stats()
	if err := rs.warm(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	acct := costsBetween(before, r.f.eng.Stats())

	bytes0 := int64(0)
	ls, win, err := measured(r, func(d time.Duration) (loopStats, error) {
		if hb != nil {
			bytes0 = hb.respBytes.Load()
		}
		return rs.loop(d)
	})
	if err != nil {
		return err
	}
	if hb != nil {
		r.layer["serve.http.resp_bytes_per_query"] = ratio(float64(hb.respBytes.Load()-bytes0), float64(ls.queries))
	}
	r.reportLoop(ls)

	// The update probe: a fixed script of updates with no queries after it,
	// on the same graph, after the read loop. Each update starts from a
	// collected heap, so a collection started by the read loop's garbage is
	// not charged to whichever update it overlaps: on engine-bicc-skew this
	// narrowed the middle half of one run's updates from 35.7-44.6 ms to
	// 33.4-40.3 ms.
	if r.traced {
		r.active.Store(r.tr)
	}
	ledger := newLedger()
	sc := newScript(r.g.N(), probeEdges, r.seed)
	var lat latencies
	prev := r.f.eng.Stats()
	for w := 0; w < probeUpdates; w++ {
		runtime.GC()
		t := r.active.Load()
		sp := t.open("serve.engine.update", 0, 0)
		t0 := time.Now()
		_, err := r.f.eng.Update(sc.update(w), true)
		lat.add(time.Since(t0))
		t.finish(sp)
		r.tried++
		if err != nil {
			return fmt.Errorf("probe update %d: %w", w, err)
		}
		next := r.f.eng.Stats()
		ledger.published(prev, next)
		prev = next
	}
	r.active.Store(nil)
	if err := r.reportUpdates(summarize(probeUpdates, lat), ledger, acct, win); err != nil {
		return err
	}

	r.tried += rs.tried.Load()
	r.failed += rs.failed.Load()
	bad := rs.verify(newReference(r.g, r.s.connFrac < 1), r.queries)
	r.failed += int64(bad)
	r.detail["wrong_answers"] = bad
	return nil
}

func (r *run) churn() error {
	sc := newScript(r.g.N(), r.s.edgesPerUpdate, r.seed)
	cs := newChurn(r.s, r.f.eng, sc, r.queries, &r.active)
	st, win, err := measured(r, cs.run)
	if err != nil {
		return err
	}
	r.reportLoop(st.loopStats)
	r.detail["windows"] = cs.windows
	if err := r.reportUpdates(st.upd, cs.ledger, cs.acct, win); err != nil {
		return err
	}
	r.tried += cs.tried
	r.failed += cs.failed
	bad := cs.verify(r.g)
	r.failed += int64(bad)
	r.detail["wrong_answers"] = bad
	return nil
}

func (r *run) reportLoop(ls loopStats) {
	r.e2e["qps"] = ls.qps
	r.e2e["latency_p50_ms"] = ls.lat.P50
	r.e2e["latency_tail_ms"] = ls.lat.Tail
	r.detail["latency_tail_pct"], r.detail["latency_samples"], r.detail["slices"] = ls.lat.TailPct, ls.lat.Samples, ls.slices
}

// reportUpdates fills the update metrics, the counted metrics and, for a
// traced run, the /metrics window that ends now.
func (r *run) reportUpdates(upd summary, l *updateLedger, acct queryCosts, win *window) error {
	r.e2e["update_p50_ms"] = upd.P50
	r.layer["serve.update.tail_ms"] = upd.Tail
	r.detail["update_tail_pct"], r.detail["update_samples"] = upd.TailPct, upd.Samples
	r.e2e["update_writes"] = ratio(float64(l.writes), float64(l.updates))
	r.e2e["work_per_query"] = acct.workPerQuery()
	l.fill(r.layer)
	acct.fill(r.layer)
	r.detail["counts"] = map[string]any{
		"work_per_query": r.e2e["work_per_query"],
		"build_writes":   r.e2e["build_writes"],
		"update_writes":  r.e2e["update_writes"],
		"strategies":     l.strategies,
		"lazy_builds":    l.lazyBuilds,
		"updates":        l.updates,
	}
	if win == nil {
		return nil
	}
	b, err := scrapeMetrics(r.f.met)
	if err != nil {
		return err
	}
	win.b = b
	scrapeLayers(*win, r.layer)
	return nil
}

// spanLayers turns the recorded spans into per-layer figures.
func (r *run) spanLayers() {
	agg := aggregateSpans(r.tr.snapshot())
	r.layer["serve.http.handler_ms"] = agg["serve.http.handler"].MeanMs
	r.layer["serve.http.transport_ms"] = agg["client.batch"].SelfMs
	r.layer["client.decode_ms"] = agg["client.decode"].MeanMs
	r.layer["serve.engine.do_ms"] = agg["serve.engine.do"].MeanMs
	r.layer["decomp.build_s"] = agg["setup.decomp"].MeanMs / 1e3
	r.layer["conn.build_s"] = agg["setup.conn"].MeanMs / 1e3
	r.layer["bicc.build_s"] = agg["setup.bicc"].MeanMs / 1e3
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	spans := make(map[string]spanStat, len(agg))
	for _, n := range names {
		spans[n] = agg[n]
	}
	r.detail["spans"] = spans
}
