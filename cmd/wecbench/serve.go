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

// serve mode: a load generator for the oracled HTTP API. With -serveaddr it
// drives a running daemon; without, it starts an in-process server over a
// generated random-regular graph (so the mode is self-contained and works
// as a smoke test). Queries are sent as /batch requests from -serveconc
// concurrent clients; the mix knob splits traffic between the cheap
// connectivity family (connected/component, O(√ω) reads each) and the
// expensive biconnectivity family (bridge/articulation/biconnected, O(ω)
// reads each). Reported: QPS, batch latency percentiles, and the /stats
// per-kind cost-model telemetry. The process exits nonzero unless every
// requested query was answered — CI uses this mode as the end-to-end gate
// on the serving path.
var (
	serveAddr    = flag.String("serveaddr", "", "oracled base URL (empty: start in-process server)")
	serveQueries = flag.Int("servequeries", 20000, "serve mode: total queries to send")
	serveConc    = flag.Int("serveconc", 8, "serve mode: concurrent clients")
	serveBatchSz = flag.Int("servebatch", 256, "serve mode: queries per /batch request")
	serveMix     = flag.Float64("servemix", 0.5, "serve mode: fraction of connectivity-family queries (rest biconnectivity)")
	serveOmega   = flag.Int("serveomega", 64, "serve mode (in-process): write cost ω")
)

var connKinds = []serve.Kind{serve.KindConnected, serve.KindComponent}
var biccKinds = []serve.Kind{serve.KindBridge, serve.KindArticulation, serve.KindBiconnected, serve.KindTwoEdgeConnected}

// serveBench is the wecbench runner for -exp serve. With -servechurn > 0
// it runs the dynamic-update churn workload (churn.go) instead of the
// static load test.
func serveBench(scale int) {
	if *serveChurn > 0 {
		churnBench(scale)
		return
	}
	header("Serve", "oracled under load: QPS, latency percentiles, per-kind cost telemetry")

	base := *serveAddr
	var g *graph.Graph
	if base == "" {
		n := (1 << 13) * scale
		g = graph.RandomRegular(n, 3, 71)
		fmt.Printf("in-process oracled: n=%d m=%d ω=%d, building...\n", g.N(), g.M(), *serveOmega)
		eng := serve.New(g, serve.Config{Omega: *serveOmega, Seed: 7})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: listen: %v\n", err)
			os.Exit(1)
		}
		srv := &http.Server{Handler: serve.NewServer(eng)}
		go srv.Serve(ln)
		defer srv.Close()
		base = "http://" + ln.Addr().String()
	}

	info, err := fetchInfo(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %s unreachable: %v\n", base, err)
		os.Exit(1)
	}
	fmt.Printf("target %s: n=%d m=%d ω=%d k=%d workers=%d\n",
		base, info.GraphN, info.GraphM, info.Omega, info.K, info.Workers)
	fmt.Printf("load: %d queries, %d clients, batch=%d, mix=%.0f%% conn / %.0f%% bicc\n",
		*serveQueries, *serveConc, *serveBatchSz, 100**serveMix, 100*(1-*serveMix))

	statsBefore, err := fetchStats(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: /stats unreachable: %v\n", err)
		os.Exit(1)
	}

	var sent, answered atomic.Int64
	var failed atomic.Bool
	var latencies []time.Duration
	var latMu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *serveConc; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := graph.NewRNG(uint64(1000 + client))
			var local []time.Duration
			defer func() {
				latMu.Lock()
				latencies = append(latencies, local...)
				latMu.Unlock()
			}()
			for {
				remaining := int64(*serveQueries) - sent.Add(int64(*serveBatchSz))
				batch := *serveBatchSz
				if remaining < 0 {
					batch += int(remaining) // last, partial batch
					if batch <= 0 {
						break
					}
				}
				qs := randomBatch(rng, info.GraphN, batch)
				t0 := time.Now()
				if err := postBatch(base, qs); err != nil {
					fmt.Fprintf(os.Stderr, "serve: batch failed: %v\n", err)
					failed.Store(true)
					return
				}
				local = append(local, time.Since(t0))
				answered.Add(int64(batch))
				if remaining <= 0 {
					break
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	total := answered.Load()
	if failed.Load() || total < int64(*serveQueries) {
		fmt.Fprintf(os.Stderr, "serve: FAILED — only %d/%d queries answered\n",
			total, *serveQueries)
		os.Exit(1)
	}
	fmt.Printf("\n%12s %12s %10s | %10s %10s %10s %10s\n",
		"queries", "wall", "QPS", "p50", "p90", "p99", "max")
	sum := summarize(latencies, total, wall)
	round := func(d time.Duration) time.Duration { return d.Round(10 * time.Microsecond) }
	fmt.Printf("%12d %12v %10.0f | %10v %10v %10v %10v\n",
		total, wall.Round(time.Millisecond), sum.QPS,
		round(sum.P50), round(sum.P90), round(sum.P99), round(sum.Max))

	statsAfter, err := fetchStats(base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: FAILED — /stats after load: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n%-14s %10s | %12s %10s %12s %12s\n",
		"kind", "count", "reads/q", "writes/q", "work/q", "errors")
	for _, k := range serve.Kinds {
		a, b := statsAfter.Queries[string(k)], statsBefore.Queries[string(k)]
		count := a.Count - b.Count
		if count == 0 {
			continue
		}
		fmt.Printf("%-14s %10d | %12.1f %10.2f %12.1f %12d\n",
			k, count,
			float64(a.Cost.Reads-b.Cost.Reads)/float64(count),
			float64(a.Cost.Writes-b.Cost.Writes)/float64(count),
			float64(a.Cost.Work()-b.Cost.Work())/float64(count),
			a.Errors-b.Errors)
	}
}

// randomBatch draws batch queries with the configured family mix.
func randomBatch(rng *graph.RNG, n, batch int) []serve.Query {
	qs := make([]serve.Query, batch)
	for i := range qs {
		var kind serve.Kind
		if rng.Float64() < *serveMix {
			kind = connKinds[rng.Intn(len(connKinds))]
		} else {
			kind = biccKinds[rng.Intn(len(biccKinds))]
		}
		qs[i] = serve.Query{Kind: kind, U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	return qs
}

func fetchInfo(base string) (serve.Info, error) {
	var info serve.Info
	err := getDecode(base+"/info", &info)
	return info, err
}

func fetchStats(base string) (serve.Stats, error) {
	var st serve.Stats
	err := getDecode(base+"/stats", &st)
	return st, err
}

func getDecode(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postBatch(base string, qs []serve.Query) error {
	body, err := json.Marshal(serve.BatchRequest{Queries: qs})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var br serve.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /batch: %s", resp.Status)
	}
	if br.Count != len(qs) {
		return fmt.Errorf("POST /batch: sent %d got %d results", len(qs), br.Count)
	}
	return nil
}
