package serve

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestSharedDecomposition pins one implicit decomposition per graph
// version: the boot build hands conn's decomposition to bicc, and a lazy
// bicc build reuses conn's whenever conn's rung (boot, full, rebased)
// decomposed the served graph, but builds its own after a patch. conn's
// build cost includes the shared decomposition; bicc's excludes it when
// bicc reuses one. After every step the four bicc kinds must answer as
// bicc.Ref on the served graph. The subtest names are in the subtest
// filter of the -count=20 line of `make race`.
func TestSharedDecomposition(t *testing.T) {
	const omega, seed = 64, 7
	// Eight 32-cycles: an edge between two of them is a bridge, so inserting
	// it merges components and is never a bicc no-op.
	g := graph.Disconnected(graph.Cycle(32), 8)
	bridge := func(i int32) Update { return Update{Add: [][2]int32{{32 * i, 32*(i+1) + 5}}} }

	t.Run("boot", func(t *testing.T) {
		e := New(g, Config{Omega: omega, Seed: seed})
		defer e.Close()
		if e.Conn().D != e.Bicc().D {
			t.Fatal("boot built two decompositions")
		}
		m := asym.NewMeter(omega)
		co := conn.BuildOracle(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, e.K(), seed)
		co.EnsureForest(m)
		st := e.Stats()
		if got, want := st.BuildCosts["conn"], m.Snapshot(); got != want {
			t.Errorf("build_costs.conn %+v, want conn.BuildOracle+EnsureForest %+v", got, want)
		}
		if got, want := st.BuildCosts["bicc"], biccCostOver(g, e.K(), seed, prebuilt(g, e.K(), seed)); got != want {
			t.Errorf("build_costs.bicc %+v, want bicc.BuildOracle over a prebuilt decomposition %+v", got, want)
		}
		checkBiccRef(t, e)
	})

	t.Run("lazy-boot", func(t *testing.T) {
		e := New(g, Config{Omega: omega, Seed: seed, LazyBoot: true})
		defer e.Close()
		checkBiccRef(t, e) // its bicc queries run the lazy build
		if e.Conn().D != e.Bicc().D {
			t.Fatal("lazy build after boot did not reuse conn's decomposition")
		}
		if got, want := e.Stats().BuildCosts["bicc"], biccCostOver(g, e.K(), seed, prebuilt(g, e.K(), seed)); got != want {
			t.Errorf("build_costs.bicc %+v, want bicc.BuildOracle over a prebuilt decomposition %+v", got, want)
		}
	})

	t.Run("rebased", func(t *testing.T) {
		e := New(g, Config{Omega: omega, Seed: seed, RebaseEvery: 1})
		defer e.Close()
		for i, want := range []string{StrategyPatchedInsert, StrategyRebased} {
			if _, err := e.Update(bridge(int32(2*i)), true); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			rec := st.Rebuilds[len(st.Rebuilds)-1]
			if rec.Strategies["conn"] != want || rec.Strategies["bicc"] != StrategyLazy {
				t.Fatalf("batch %d strategies %+v, want conn %s, bicc lazy", i+1, rec.Strategies, want)
			}
			checkBiccRef(t, e)
		}
		if e.Conn().D.Graph() != e.Graph() || e.Bicc().D != e.Conn().D {
			t.Fatal("lazy build after the rebased publish did not reuse conn's decomposition")
		}
		if got, want := e.Stats().BuildCosts["bicc"], biccCostOver(e.Graph(), e.K(), seed, prebuilt(e.Graph(), e.K(), seed)); got != want {
			t.Errorf("build_costs.bicc %+v, want bicc.BuildOracle over a prebuilt decomposition %+v", got, want)
		}
	})

	t.Run("patched-insert", func(t *testing.T) {
		e := New(g, Config{Omega: omega, Seed: seed})
		defer e.Close()
		if _, err := e.Update(bridge(0), true); err != nil {
			t.Fatal(err)
		}
		st := e.Stats()
		if rec := st.Rebuilds[len(st.Rebuilds)-1]; rec.Strategies["conn"] != StrategyPatchedInsert || rec.Strategies["bicc"] != StrategyLazy {
			t.Fatalf("strategies %+v, want conn patched-insert, bicc lazy", rec.Strategies)
		}
		checkBiccRef(t, e)
		d := e.Bicc().D
		if d == e.Conn().D || d.Graph() != e.Graph() {
			t.Fatal("lazy build after a patch must decompose the served graph itself")
		}
		if got, want := e.Stats().BuildCosts["bicc"], biccCostOver(e.Graph(), e.K(), seed, nil); got != want {
			t.Errorf("build_costs.bicc %+v, want bicc.BuildOracle with its own decomposition %+v", got, want)
		}
	})
}

// prebuilt builds the implicit decomposition of g on a throwaway meter.
func prebuilt(g *graph.Graph, k int, seed uint64) *decomp.Decomposition {
	m := asym.NewMeter(1)
	return decomp.Build(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, k, seed, decomp.Options{})
}

// biccCostOver is the cost bicc.BuildOracle charges over d (nil: its own
// decomposition) at ω = 64.
func biccCostOver(g *graph.Graph, k int, seed uint64, d *decomp.Decomposition) asym.Cost {
	m := asym.NewMeter(64)
	bicc.BuildOracle(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, d, k, seed)
	return m.Snapshot()
}

// checkBiccRef asks the engine every articulation and bridge query and a
// sample of vertex pairs, on the strict path, and compares each answer with
// bicc.Ref on the served graph.
func checkBiccRef(t *testing.T, e *Engine) {
	t.Helper()
	g := e.Graph()
	ref := bicc.NewRef(g)
	var qs []Query
	var want []bool
	for v := int32(0); int(v) < g.N(); v++ {
		qs = append(qs, Query{Kind: KindArticulation, U: v})
		want = append(want, ref.IsArticulation[v])
	}
	for _, ed := range g.Edges() {
		if ed[0] != ed[1] {
			qs = append(qs, Query{Kind: KindBridge, U: ed[0], V: ed[1]})
			want = append(want, ref.IsBridge(ed[0], ed[1]))
		}
	}
	rng := graph.NewRNG(11)
	for i := 0; i < 200; i++ {
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		if u == v {
			continue
		}
		qs = append(qs, Query{Kind: KindBiconnected, U: u, V: v}, Query{Kind: KindTwoEdgeConnected, U: u, V: v})
		want = append(want, ref.SameBCC(u, v), ref.TwoEdgeCC[u] == ref.TwoEdgeCC[v])
	}
	for i, r := range e.Do(qs) {
		if r.Err != "" || r.Bool == nil || *r.Bool != want[i] {
			t.Fatalf("%s = %+v, bicc.Ref says %v", describe(qs[i]), r, want[i])
		}
	}
}
