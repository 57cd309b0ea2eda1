package store

// The store↔serve integration: a registry persisted through a real Store,
// churned, "crashed" (the store dropped without any graceful fold), and
// recovered into a fresh registry whose answers must match a from-scratch
// reference engine over the expected edge list. This is the in-process
// core of the smoke-restart e2e (cmd/wecbench -exp restart adds the real
// SIGKILL and process boundary).

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// storePersist adapts Store to serve.RegistryPersister (the same ten lines
// cmd/oracled wires; duplicated here because serve must not import store).
type storePersist struct{ st *Store }

func (p storePersist) CreateGraph(name string, specJSON []byte) (serve.GraphPersister, error) {
	return p.st.CreateGraph(name, specJSON)
}

func (p storePersist) DeleteGraph(name string) error { return p.st.DeleteGraph(name) }

func waitState(t *testing.T, reg *serve.Registry, name string) {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if st, ok := reg.Status(name); ok && st.State != serve.StateBuilding {
			if st.State != serve.StateReady {
				t.Fatalf("graph %q: %s (%s)", name, st.State, st.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("graph %q never became ready", name)
}

// verifyAgainstReference compares served answers with a from-scratch
// engine over the expected edge multiset: same seed and ω, so labels
// match exactly, not just as a partition.
func verifyAgainstReference(t *testing.T, eng *serve.Engine, n int, edges [][2]int32, omega int, seed uint64) {
	t.Helper()
	ref := serve.New(graph.FromEdges(n, edges), serve.Config{Omega: omega, Seed: seed})
	defer ref.Close()
	rng := graph.NewRNG(777)
	var qs []serve.Query
	for i := 0; i < 600; i++ {
		kind := serve.Kinds[i%len(serve.Kinds)]
		var u, v int32
		if i%3 == 0 && len(edges) > 0 {
			e := edges[rng.Intn(len(edges))]
			u, v = e[0], e[1]
		} else {
			u, v = int32(rng.Intn(n)), int32(rng.Intn(n))
		}
		qs = append(qs, serve.Query{Kind: kind, U: u, V: v})
	}
	got, want := eng.Do(qs), ref.Do(qs)
	for i := range qs {
		g, w := got[i], want[i]
		if (g.Bool == nil) != (w.Bool == nil) || (g.Label == nil) != (w.Label == nil) ||
			(g.Bool != nil && *g.Bool != *w.Bool) || (g.Label != nil && *g.Label != *w.Label) || g.Err != w.Err {
			t.Fatalf("query %d %s(%d,%d): served %+v, reference %+v", i, qs[i].Kind, qs[i].U, qs[i].V, g, w)
		}
	}
}

// TestRegistryStoreCrashRecovery: two graphs created through a persisted
// registry, churned (one incrementally, one with removals), crash-dropped,
// recovered into a new registry — names, watermarks, and every sampled
// answer must match from-scratch references. Then churn continues and a
// second crash/recover round proves sequence continuity.
func TestRegistryStoreCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	const omega, seed = 16, 7

	st, rec, err := Open(dir, Options{Fsync: FsyncNone, CompactBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Graphs) != 0 {
		t.Fatalf("fresh recovery has %d graphs", len(rec.Graphs))
	}
	reg := serve.NewRegistry(serve.RegistryConfig{
		Engine:  serve.Config{Omega: omega, Seed: seed},
		Persist: storePersist{st},
	})

	type tenant struct {
		name  string
		n     int
		edges [][2]int32
	}
	tenants := []*tenant{{name: "alpha", n: 200}, {name: "beta", n: 150}}
	for i, tn := range tenants {
		g := graph.RandomRegular(tn.n, 3, uint64(10+i))
		tn.edges = g.Edges()
		if _, err := reg.CreateFromGraph(tn.name, g, serve.GraphSpec{Name: tn.name, Wait: true}); err != nil {
			t.Fatalf("create %s: %v", tn.name, err)
		}
	}

	// Churn: alpha gets insertion-only batches (incremental path + remap
	// tables), beta gets mixed batches (full rebuilds).
	rng := graph.NewRNG(3)
	churn := func(reg *serve.Registry, tn *tenant, batches int, withRemovals bool) {
		eng, err := reg.Get(tn.name)
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < batches; b++ {
			var u serve.Update
			for j := 0; j < 5; j++ {
				u.Add = append(u.Add, [2]int32{int32(rng.Intn(tn.n)), int32(rng.Intn(tn.n))})
			}
			if withRemovals && len(tn.edges) > 3 {
				idx := rng.Intn(len(tn.edges) - 1)
				u.Remove = [][2]int32{tn.edges[idx]}
				tn.edges = append(tn.edges[:idx], tn.edges[idx+1:]...)
			}
			if _, err := eng.Update(u, true); err != nil {
				t.Fatalf("churn %s: %v", tn.name, err)
			}
			tn.edges = append(tn.edges, u.Add...)
		}
	}
	churn(reg, tenants[0], 4, false)
	churn(reg, tenants[1], 3, true)

	alphaEpoch, _ := reg.Get(tenants[0].name)
	wantAlphaEpoch := alphaEpoch.Epoch()
	if wantAlphaEpoch < 4 {
		t.Fatalf("alpha epoch %d after 4 waited batches", wantAlphaEpoch)
	}

	// Crash: close the store abruptly; the registry is simply dropped (no
	// graceful shutdown, no final snapshot).
	st.Close()

	// Recover into a fresh store + registry.
	st2, rec2, err := Open(dir, Options{Fsync: FsyncNone, CompactBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Graphs) != 2 || rec2.Graphs[0].Name != "alpha" || rec2.Graphs[1].Name != "beta" {
		t.Fatalf("recovered fleet %+v", rec2.Graphs)
	}
	reg2 := serve.NewRegistry(serve.RegistryConfig{
		Engine:  serve.Config{Omega: omega, Seed: seed},
		Persist: storePersist{st2},
	})
	for _, rg := range rec2.Graphs {
		var spec serve.GraphSpec
		if err := json.Unmarshal(rg.SpecJSON, &spec); err != nil {
			t.Fatalf("spec of %s: %v", rg.Name, err)
		}
		rs := serve.RecoveredState{Epoch: rg.Epoch, Seq: rg.LastSeq, Forest: rg.Forest, ChainDepth: rg.ChainDepth}
		if _, err := reg2.CreateRecovered(rg.Name, rg.Graph, spec, rg.Log, rs); err != nil {
			t.Fatalf("recover %s: %v", rg.Name, err)
		}
	}
	for i, tn := range tenants {
		waitState(t, reg2, tn.name)
		eng, err := reg2.Get(tn.name)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Graph().N() != tn.n || eng.Graph().M() != len(tn.edges) {
			t.Fatalf("%s recovered shape n=%d m=%d, want n=%d m=%d",
				tn.name, eng.Graph().N(), eng.Graph().M(), tn.n, len(tn.edges))
		}
		if i == 0 && eng.Epoch() < wantAlphaEpoch {
			t.Fatalf("alpha recovered at epoch %d, below last acknowledged %d", eng.Epoch(), wantAlphaEpoch)
		}
		verifyAgainstReference(t, eng, tn.n, tn.edges, omega, seed)
	}

	// Life goes on: more churn against the recovered fleet, then a second
	// crash/recover round (sequence numbers must have continued, not
	// collided with the pre-crash WAL records).
	churn(reg2, tenants[0], 2, true)
	st2.Close()

	st3, rec3, err := Open(dir, Options{Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	reg3 := serve.NewRegistry(serve.RegistryConfig{Engine: serve.Config{Omega: omega, Seed: seed}})
	for _, rg := range rec3.Graphs {
		rs := serve.RecoveredState{Epoch: rg.Epoch, Seq: rg.LastSeq, Forest: rg.Forest, ChainDepth: rg.ChainDepth}
		if _, err := reg3.CreateRecovered(rg.Name, rg.Graph, serve.GraphSpec{}, rg.Log, rs); err != nil {
			t.Fatal(err)
		}
	}
	waitState(t, reg3, "alpha")
	eng, err := reg3.Get("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Graph().M() != len(tenants[0].edges) {
		t.Fatalf("second recovery m=%d, want %d", eng.Graph().M(), len(tenants[0].edges))
	}
	verifyAgainstReference(t, eng, tenants[0].n, tenants[0].edges, omega, seed)
	reg.Close()
	reg2.Close()
	reg3.Close()
}
