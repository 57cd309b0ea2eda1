package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Multitenant workload (-exp multitenant): the end-to-end gate on the
// multi-graph registry. One in-process registry server carries N graphs
// created through the lifecycle API (POST /graphs), all sharing one
// admission-controlled worker pool. The workload:
//
//   - asserts the readiness window: /healthz is 503 before the default
//     graph exists, 200 once it is ready;
//   - drives concurrent /graphs/{name}/batch query load against every
//     graph at once, verifying every answer against that graph's own
//     from-scratch reference engine (cross-graph isolation: a leaked
//     snapshot would answer with the wrong graph's structure);
//   - churns one graph through /graphs/{name}/update (wait=true) under the
//     query load, re-verifying after every snapshot swap, and asserts the
//     other graphs' epochs never move;
//   - demonstrates admission control on a capped graph: queue-full → 429 +
//     Retry-After, the rejection visible in that graph's /stats, and a 200
//     once the slot frees;
//   - deletes a graph and asserts it 404s while the rest keep serving;
//   - prints per-graph query/cost deltas and the shared-pool telemetry.
//
// The process exits nonzero unless every check passes. CI runs this under
// the race detector (make smoke-multitenant).
var (
	mtGraphs  = flag.Int("mtgraphs", 3, "multitenant: graphs to serve (>= 2)")
	mtQueries = flag.Int("mtqueries", 3000, "multitenant: queries per graph")
	mtChurn   = flag.Int("mtchurn", 4, "multitenant: update batches against the churned graph")
	mtConc    = flag.Int("mtconc", 3, "multitenant: concurrent clients per graph")
)

// mtSpec mirrors the registry's generator mapping for one benchmark graph
// so the reference engine is built over the identical graph the daemon
// serves; /info is cross-checked to catch drift.
type mtSpec struct {
	name string
	gen  string
	n    int
	deg  int
	seed uint64
}

func (s mtSpec) build() *graph.Graph {
	if s.gen == "gnm" {
		return graph.GNM(s.n, s.n*s.deg/2, s.seed, true)
	}
	return graph.RandomRegular(s.n, s.deg, s.seed)
}

func multitenantBench(scale int) {
	if *mtGraphs < 2 {
		fmt.Fprintf(os.Stderr, "multitenant: -mtgraphs must be >= 2\n")
		os.Exit(2)
	}
	header("Multitenant", "N graphs behind one registry: lifecycle, isolation, shared-pool admission control")
	// This bench is a CI gate for concurrency regressions; a hung request
	// (e.g. a leaked pool slot) must fail fast with a diagnostic, not
	// stall the job until its timeout. All helpers use the default client.
	http.DefaultClient.Timeout = 2 * time.Minute
	defer func() { http.DefaultClient.Timeout = 0 }()
	failed := false
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "multitenant: FAILED — "+format+"\n", args...)
		failed = true
	}

	reg := serve.NewRegistry(serve.RegistryConfig{
		Engine: serve.Config{Omega: *serveOmega, Seed: 7},
	})
	defer reg.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "multitenant: listen: %v\n", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: serve.NewRegistryServer(reg)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	// Readiness: no graphs yet, the daemon must say so.
	if code, _ := rawReq(http.MethodGet, base+"/healthz", nil); code != http.StatusServiceUnavailable {
		fail("/healthz with no graphs: %d, want 503", code)
	}

	// Create the tenant fleet through the lifecycle API: distinct shapes
	// and seeds per graph so no two graphs answer alike.
	specs := make([]mtSpec, *mtGraphs)
	refs := make([]*serve.Engine, *mtGraphs)
	edgeLists := make([][][2]int32, *mtGraphs)
	for i := range specs {
		s := mtSpec{
			name: fmt.Sprintf("g%d", i),
			gen:  "random-regular",
			n:    (1<<9)*scale + 128*i,
			deg:  3,
			seed: uint64(101 + 13*i),
		}
		if i%2 == 1 {
			s.gen, s.deg = "gnm", 4
		}
		specs[i] = s
		body, _ := json.Marshal(serve.GraphSpec{
			Name: s.name, Gen: s.gen, N: s.n, Deg: s.deg, GraphSeed: s.seed, Wait: true,
		})
		code, resp := rawReq(http.MethodPost, base+"/graphs", body)
		if code != http.StatusCreated {
			fmt.Fprintf(os.Stderr, "multitenant: create %s: code=%d body=%s\n", s.name, code, resp)
			os.Exit(1)
		}
		g := s.build()
		edgeLists[i] = g.Edges()
		refs[i] = serve.New(g, serve.Config{Omega: *serveOmega, Seed: 7})
		defer refs[i].Close()
	}
	if code, _ := rawReq(http.MethodGet, base+"/healthz", nil); code != http.StatusOK {
		fail("/healthz with default graph ready: %d, want 200", code)
	}

	// Per-graph /info must reflect each graph's own shape (and match the
	// local twin, or the reference verification below is meaningless).
	for i, s := range specs {
		info, err := fetchInfo(base + "/graphs/" + s.name)
		if err != nil {
			fail("%s /info: %v", s.name, err)
			continue
		}
		if info.GraphN != refs[i].Graph().N() || info.GraphM != refs[i].Graph().M() {
			fail("%s shape: served n=%d m=%d, reference n=%d m=%d (generator drift?)",
				s.name, info.GraphN, info.GraphM, refs[i].Graph().N(), refs[i].Graph().M())
		}
	}
	fmt.Printf("%d graphs ready behind %s (shared pool: %d workers)\n",
		*mtGraphs, base, reg.Pool().Size())

	statsBefore := make([]serve.Stats, *mtGraphs)
	for i, s := range specs {
		if statsBefore[i], err = fetchStats(base + "/graphs/" + s.name); err != nil {
			fail("%s /stats: %v", s.name, err)
		}
	}

	// Concurrent mixed load against every graph at once, every answer
	// verified against the graph's own reference engine. The churn graph
	// (g1) is churned from the main goroutine meanwhile.
	churnIdx := 1
	var stop atomic.Bool
	var answered atomic.Int64
	var vfailed atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range specs {
		// The churned graph's reference is swapped by the main goroutine
		// mid-run; its clients use only the (fixed) vertex count, captured
		// here, and skip the per-batch reference check — verifyChurn covers
		// it at every swap boundary.
		ref, n := refs[i], refs[i].Graph().N()
		for c := 0; c < *mtConc; c++ {
			wg.Add(1)
			go func(i int, s mtSpec, c int) {
				defer wg.Done()
				gbase := base + "/graphs/" + s.name
				rng := graph.NewRNG(uint64(5000 + 97*i + c))
				sent := 0
				for sent < *mtQueries && !stop.Load() && !vfailed.Load() {
					batch := *serveBatchSz
					if left := *mtQueries - sent; batch > left {
						batch = left
					}
					qs := randomBatch(rng, n, batch)
					got, err := postBatchResults(gbase, qs)
					if err != nil {
						fmt.Fprintf(os.Stderr, "multitenant: %s batch: %v\n", s.name, err)
						vfailed.Store(true)
						return
					}
					// The churned graph is verified at swap boundaries below
					// (its reference evolves); the static graphs must match
					// their reference answer for answer.
					if i != churnIdx {
						want := ref.Do(qs)
						for j := range qs {
							if !sameServedResult(got[j], want[j]) {
								fmt.Fprintf(os.Stderr,
									"multitenant: %s isolation breach: %s(%d,%d) served %s, reference %s\n",
									s.name, qs[j].Kind, qs[j].U, qs[j].V,
									resultString(got[j]), resultString(want[j]))
								vfailed.Store(true)
								return
							}
						}
					}
					sent += batch
					answered.Add(int64(batch))
				}
			}(i, s, c)
		}
	}

	// Churn g1 while the fleet serves: odd batches insertion-only
	// (incremental), even mixed (full rebuild), each verified post-swap
	// against a from-scratch engine over the evolving edge list.
	churnBase := base + "/graphs/" + specs[churnIdx].name
	churnEdges := edgeLists[churnIdx]
	churnN := refs[churnIdx].Graph().N()
	rng := graph.NewRNG(4242)
	for b := 1; b <= *mtChurn && !vfailed.Load(); b++ {
		req := serve.UpdateRequest{Wait: true}
		next := churnEdges
		if b%2 == 1 {
			for j := 0; j < 16; j++ {
				req.Add = append(req.Add, [2]int32{int32(rng.Intn(churnN)), int32(rng.Intn(churnN))})
			}
		} else {
			idx := map[int]bool{}
			for len(idx) < 8 && len(idx) < len(churnEdges) {
				idx[rng.Intn(len(churnEdges))] = true
			}
			next = nil
			for j, e := range churnEdges {
				if idx[j] {
					req.Remove = append(req.Remove, e)
				} else {
					next = append(next, e)
				}
			}
			for j := 0; j < 8; j++ {
				req.Add = append(req.Add, [2]int32{int32(rng.Intn(churnN)), int32(rng.Intn(churnN))})
			}
		}
		var ur serve.UpdateResponse
		if err := postUpdate(churnBase, req, &ur); err != nil {
			fail("churn update %d: %v", b, err)
			break
		}
		if !ur.Applied || ur.Epoch != int64(b) {
			fail("churn update %d not applied at epoch %d: %+v", b, b, ur)
			break
		}
		next = append(next, req.Add...)
		churnEdges = next
		refs[churnIdx].Close()
		refs[churnIdx] = serve.New(graph.FromEdges(churnN, churnEdges), serve.Config{Omega: *serveOmega, Seed: 7})
		if err := verifyChurn(churnBase, refs[churnIdx], churnEdges, graph.NewRNG(uint64(31*b)), false); err != nil {
			fail("churn epoch %d verification: %v", b, err)
			break
		}
		// Scrape /metrics mid-churn, with the cross-tenant query load still
		// running: the exposition must stay parseable and complete while
		// epochs swap underneath it.
		if err := checkMetrics(base, serveMetricFamilies); err != nil {
			fail("mid-churn metrics scrape (epoch %d): %v", b, err)
			break
		}
		fmt.Printf("  %s epoch %d: +%d/-%d edges applied and verified under cross-tenant load (metrics scrape ok)\n",
			specs[churnIdx].name, ur.Epoch, len(req.Add), len(req.Remove))
	}
	if failed || vfailed.Load() {
		// A churn failure already decided the run: stop the clients early
		// instead of letting them finish their full query quota.
		stop.Store(true)
	}
	wg.Wait()
	wall := time.Since(start)
	if vfailed.Load() {
		failed = true
	}

	// Update isolation: only the churned graph's epoch moved.
	for i, s := range specs {
		st, err := fetchStats(base + "/graphs/" + s.name)
		if err != nil {
			fail("%s /stats after load: %v", s.name, err)
			continue
		}
		wantEpoch := int64(0)
		if i == churnIdx {
			wantEpoch = int64(*mtChurn)
		}
		if st.Epoch != wantEpoch {
			fail("%s epoch %d, want %d (update isolation)", s.name, st.Epoch, wantEpoch)
		}
		for kind, ks := range st.Queries {
			if ks.Errors != 0 {
				fail("%s: %d %s queries errored", s.name, ks.Errors, kind)
			}
		}
		delta := st.TotalQueries - statsBefore[i].TotalQueries
		fmt.Printf("  %-4s n=%-6d m=%-6d epoch=%-2d queries=%-7d queue-wait=%.1fms\n",
			s.name, st.GraphN, st.GraphM, st.Epoch, delta, float64(st.Admission.QueueWait.Microseconds())/1000)
	}

	// Admission control: a capped tenant rejects the second concurrent
	// request with 429 + Retry-After, visibly in /stats, then recovers.
	body, _ := json.Marshal(serve.GraphSpec{
		Name: "tiny", N: 256, Deg: 3, GraphSeed: 5, MaxInflight: 1, Wait: true,
	})
	if code, resp := rawReq(http.MethodPost, base+"/graphs", body); code != http.StatusCreated {
		fail("create tiny: code=%d body=%s", code, resp)
	}
	tinyEng, err := reg.Get("tiny")
	if err != nil {
		fail("tiny engine: %v", err)
	} else {
		release, err := tinyEng.Admit() // hold the single slot
		if err != nil {
			fail("tiny admit: %v", err)
		}
		qbody, _ := json.Marshal(serve.BatchRequest{Queries: randomBatch(graph.NewRNG(1), 256, 64)})
		code, hdr, resp := rawReqHeaders(http.MethodPost, base+"/graphs/tiny/batch", qbody)
		if code != http.StatusTooManyRequests {
			fail("batch against full tiny queue: code=%d body=%s, want 429", code, resp)
		} else if hdr.Get("Retry-After") == "" {
			fail("429 without Retry-After header")
		} else {
			fmt.Printf("  admission: tiny (max_inflight=1) rejected a concurrent batch with 429, Retry-After=%s\n",
				hdr.Get("Retry-After"))
		}
		release()
		if code, _, _ := rawReqHeaders(http.MethodPost, base+"/graphs/tiny/batch", qbody); code != http.StatusOK {
			fail("batch after release: code=%d, want 200", code)
		}
		st, err := fetchStats(base + "/graphs/tiny")
		if err != nil || st.Admission.Rejected < 1 {
			fail("tiny /stats admission.rejected = %d (err=%v), want >= 1", st.Admission.Rejected, err)
		} else {
			fmt.Printf("  admission: tiny /stats reports rejected=%d inflight=%d\n",
				st.Admission.Rejected, st.Admission.Inflight)
		}
	}

	// Lifecycle: delete the last graph; it 404s while the rest serve on.
	victim := specs[len(specs)-1].name
	if code, resp := rawReq(http.MethodDelete, base+"/graphs/"+victim, nil); code != http.StatusOK {
		fail("delete %s: code=%d body=%s", victim, code, resp)
	}
	qbody, _ := json.Marshal(serve.Query{Kind: serve.KindComponent, U: 0})
	if code, _ := rawReq(http.MethodPost, base+"/graphs/"+victim+"/query", qbody); code != http.StatusNotFound {
		fail("query deleted %s: code=%d, want 404", victim, code)
	}
	if code, _ := rawReq(http.MethodPost, base+"/query", qbody); code != http.StatusOK {
		fail("default graph after delete: code=%d, want 200", code)
	}

	ps := reg.Pool().Stats()
	fmt.Printf("\npool: size=%d peak=%d tasks=%d queue-wait=%v\n",
		ps.Size, ps.PeakInUse, ps.Tasks, ps.QueueWait.Round(time.Millisecond))
	fmt.Printf("%d graphs, %d queries answered and verified, %d churn epochs, %v wall\n",
		*mtGraphs, answered.Load(), *mtChurn, wall.Round(time.Millisecond))
	if int64(ps.PeakInUse) > int64(ps.Size) {
		fail("pool peak %d exceeded size %d", ps.PeakInUse, ps.Size)
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("multitenant: PASS")
}

// sameServedResult compares two served results for the static-graph
// verification (both sides run the same engine seed over the same graph,
// so labels compare exactly, not just as a partition).
func sameServedResult(a, b serve.Result) bool {
	if (a.Bool == nil) != (b.Bool == nil) || (a.Label == nil) != (b.Label == nil) {
		return false
	}
	if a.Bool != nil && *a.Bool != *b.Bool {
		return false
	}
	if a.Label != nil && *a.Label != *b.Label {
		return false
	}
	return a.Err == b.Err
}

func rawReq(method, url string, body []byte) (int, []byte) {
	code, _, b := rawReqHeaders(method, url, body)
	return code, b
}

func rawReqHeaders(method, url string, body []byte) (int, http.Header, []byte) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, []byte(err.Error())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, []byte(err.Error())
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b
}
