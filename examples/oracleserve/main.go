// Oracle serving: run the batched query engine (internal/serve) in-process
// — the same engine cmd/oracled mounts over HTTP — and watch the paper's
// cost metrics accumulate as live serving telemetry.
//
// The engine builds the paper's two oracles — connectivity (Theorem 4.4)
// and biconnectivity (Theorem 5.3) — shards query batches across a
// bounded worker pool with per-worker cost meters, and aggregates per-kind
// stats; queries stay write-free (one output write per answer is the only
// asymmetric write in the serving path).
//
// The second half shows the multi-tenant layer: a serve.Registry carrying
// several named graphs — per-graph lifecycle (building → ready), one
// shared admission-controlled worker pool, per-graph admission caps with
// rejection telemetry. cmd/oracled mounts exactly this registry over HTTP
// (/graphs lifecycle API).
package main

import (
	"fmt"
	"os"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	// A bounded-degree graph: two communities joined by a single edge, so
	// bridge and articulation queries have interesting answers.
	a := graph.RandomRegular(5_000, 3, 1)
	edges := a.Edges()
	n := a.N()
	for _, e := range graph.RandomRegular(5_000, 3, 2).Edges() {
		edges = append(edges, [2]int32{e[0] + int32(n), e[1] + int32(n)})
	}
	edges = append(edges, [2]int32{0, int32(n)}) // the bridge
	g := graph.FromEdges(2*n, edges)

	eng := serve.New(g, serve.Config{Omega: 256, Seed: 7})
	st := eng.Stats()
	fmt.Printf("engine up: n=%d m=%d ω=%d k=%d, %d components, %d BCCs\n",
		st.GraphN, st.GraphM, st.Omega, st.K, st.NumComponents, st.NumBCC)
	fmt.Printf("  conn build: %v\n", st.BuildCosts["conn"])
	fmt.Printf("  bicc build: %v\n", st.BuildCosts["bicc"])

	// Single queries: the joining edge is a bridge, its endpoints are cut
	// vertices, and the two sides are connected but not biconnected.
	for _, q := range []serve.Query{
		{Kind: serve.KindConnected, U: 17, V: int32(n) + 17},
		{Kind: serve.KindBridge, U: 0, V: int32(n)},
		{Kind: serve.KindArticulation, U: 0},
		{Kind: serve.KindBiconnected, U: 17, V: int32(n) + 17},
		{Kind: serve.KindComponent, U: 42},
	} {
		res := eng.Query(q)
		switch {
		case res.Bool != nil:
			fmt.Printf("%-13s(%5d,%5d) = %v\n", q.Kind, q.U, q.V, *res.Bool)
		case res.Label != nil:
			fmt.Printf("%-13s(%5d)       = %d\n", q.Kind, q.U, *res.Label)
		}
	}

	// A batch: 10k mixed queries sharded across workers, answered with
	// per-worker meters and merged into the aggregate stats below.
	rng := graph.NewRNG(99)
	batch := make([]serve.Query, 10_000)
	for i := range batch {
		batch[i] = serve.Query{
			Kind: serve.Kinds[i%len(serve.Kinds)],
			U:    int32(rng.Intn(g.N())),
			V:    int32(rng.Intn(g.N())),
		}
	}
	eng.Do(batch)

	st = eng.Stats()
	fmt.Printf("\nserved %d queries; per-kind telemetry:\n", st.TotalQueries)
	for _, k := range serve.Kinds {
		ks := st.Queries[string(k)]
		fmt.Printf("  %-13s count=%-6d reads/q=%-8.1f work/q=%.1f\n",
			k, ks.Count,
			float64(ks.Cost.Reads)/float64(ks.Count),
			float64(ks.Cost.Work())/float64(ks.Count))
	}

	// --- Multi-tenant: many graphs, one registry, one worker pool. ------
	//
	// Each graph keeps its own engine, epoch and stats; the pool bounds
	// query workers across all of them, and per-graph admission caps turn
	// overload into explicit rejections instead of unbounded queues.
	fmt.Println("\nmulti-tenant registry:")
	reg := serve.NewRegistry(serve.RegistryConfig{
		Engine:      serve.Config{Omega: 64, Seed: 7},
		MaxInflight: 2, // per-graph cap; beyond it Admit returns ErrBusy (HTTP: 429)
	})
	defer reg.Close()
	// Wait=true builds synchronously; cmd/oracled creates asynchronously
	// and reports state "building" until the first snapshot publishes.
	for _, spec := range []serve.GraphSpec{
		{Name: "mesh", Gen: "random-regular", N: 2000, Deg: 3, GraphSeed: 1, Wait: true},
		{Name: "social", Gen: "gnm", N: 3000, Deg: 6, GraphSeed: 2, Wait: true},
	} {
		if _, err := reg.Create(spec); err != nil {
			panic(err)
		}
	}
	for _, gs := range reg.List() {
		e, _ := reg.Get(gs.Name)
		es := e.Stats()
		fmt.Printf("  %-7s state=%s n=%-5d m=%-5d components=%-3d built in %.0fms\n",
			gs.Name, gs.State, gs.GraphN, gs.GraphM, es.NumComponents, gs.BuildMs)
	}

	// Both graphs answer batches whose chunks run on the shared pool.
	mesh, _ := reg.Get("mesh")
	social, _ := reg.Get("social")
	for name, e := range map[string]*serve.Engine{"mesh": mesh, "social": social} {
		release, err := e.Admit() // the transport layer's admission step
		if err != nil {
			panic(err)
		}
		qs := make([]serve.Query, 1000)
		for i := range qs {
			qs[i] = serve.Query{Kind: serve.KindConnected, U: int32(i), V: int32(i + 99)}
		}
		res := e.Do(qs)
		release()
		fmt.Printf("  %-7s batch of %d served; connected(0,99)=%v queue-wait=%v\n",
			name, len(res), *res[0].Bool, e.Stats().Admission.QueueWait)
	}
	ps := reg.Pool().Stats()
	fmt.Printf("  shared pool: size=%d peak=%d tasks=%d\n", ps.Size, ps.PeakInUse, ps.Tasks)

	// --- Restart survival: the durable store (internal/store). ----------
	//
	// Everything above lives in memory: kill the process and every
	// expensively-built oracle is gone. A registry wired to a store
	// persists the fleet — creates/deletes to a manifest, every accepted
	// update batch to a per-graph WAL *before* it is staged, snapshots on
	// a compaction schedule — so a restarted daemon replays the data
	// directory and rebuilds. cmd/oracled does exactly this under
	// -datadir; the walkthrough below is the same wiring in-process, with
	// a simulated crash (the first store is dropped without any graceful
	// fold).
	fmt.Println("\nrestart survival:")
	dir, err := os.MkdirTemp("", "oracleserve-data-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	dst, _, err := store.Open(dir, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		panic(err)
	}
	dreg := serve.NewRegistry(serve.RegistryConfig{
		Engine:  serve.Config{Omega: 64, Seed: 7},
		Persist: storePersist{dst},
	})
	if _, err := dreg.Create(serve.GraphSpec{Name: "durable", N: 2000, Deg: 3, GraphSeed: 9, Wait: true}); err != nil {
		panic(err)
	}
	de, _ := dreg.Get("durable")
	// Two acknowledged churn batches: by the time Update returns, both are
	// in the WAL (logged before staging) and published (wait=true).
	if _, err := de.Update(serve.Update{Add: [][2]int32{{0, 1000}, {5, 1500}}}, true); err != nil {
		panic(err)
	}
	if _, err := de.Update(serve.Update{Remove: [][2]int32{{0, 1000}}}, true); err != nil {
		panic(err)
	}
	fmt.Printf("  pre-crash:  epoch=%d m=%d connected(5,1500)=%v\n",
		de.Epoch(), de.Graph().M(), *de.Query(serve.Query{Kind: serve.KindConnected, U: 5, V: 1500}).Bool)

	// CRASH: drop registry and store with no shutdown. (kill -9 in
	// process form — the OS file buffers survive, nothing else does.)
	dst.Close()
	dreg.Close()

	// Recover: reopen the store, hand each recovered graph to a fresh
	// registry. Epoch and update sequence numbers resume where clients
	// last saw them acknowledged.
	dst2, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncNone})
	if err != nil {
		panic(err)
	}
	defer dst2.Close()
	reg2 := serve.NewRegistry(serve.RegistryConfig{
		Engine:  serve.Config{Omega: 64, Seed: 7},
		Persist: storePersist{dst2},
	})
	defer reg2.Close()
	for _, rg := range rec.Graphs {
		rs := serve.RecoveredState{Epoch: rg.Epoch, Seq: rg.LastSeq, Forest: rg.Forest, ChainDepth: rg.ChainDepth}
		if _, err := reg2.CreateRecovered(rg.Name, rg.Graph, serve.GraphSpec{Wait: true}, rg.Log, rs); err != nil {
			panic(err)
		}
	}
	re, err := reg2.Get("durable")
	if err != nil {
		panic(err)
	}
	fmt.Printf("  post-crash: epoch=%d m=%d connected(5,1500)=%v (fleet of %d recovered)\n",
		re.Epoch(), re.Graph().M(), *re.Query(serve.Query{Kind: serve.KindConnected, U: 5, V: 1500}).Bool, len(rec.Graphs))
	if re.Graph().M() != de.Graph().M() || re.Epoch() < de.Epoch() {
		panic("recovery lost state")
	}
}

// storePersist adapts the durable store to the registry's persistence
// interface — the same glue cmd/oracled uses.
type storePersist struct{ st *store.Store }

func (p storePersist) CreateGraph(name string, specJSON []byte) (serve.GraphPersister, error) {
	return p.st.CreateGraph(name, specJSON)
}

func (p storePersist) DeleteGraph(name string) error { return p.st.DeleteGraph(name) }
