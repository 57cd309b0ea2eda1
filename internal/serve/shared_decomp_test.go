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
// bicc build runs over the newest decomposition at hand (conn's, or the
// previous bicc build's) repaired onto the served graph (decomp.Repair).
// That is conn's own decomposition whenever conn's rung (boot, full,
// rebased) decomposed the served graph, and after a patch a repaired one
// that stores exactly what decomp.Build would. conn's build cost includes
// the shared decomposition; bicc's includes only the repair.
// After every step the four bicc kinds must answer as bicc.Ref on the
// served graph. The subtest names are in the subtest filter of the
// -count=20 line of `make race`.
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

	// After a patch conn keeps the decomposition of the graph its patch
	// chain started from; the lazy bicc build repairs it onto the served
	// graph.
	for _, tc := range []struct {
		name, strategy string
		u              Update
	}{
		{"patched-insert", StrategyPatchedInsert, bridge(0)},
		// A cycle edge: removing it splits no component, and it is no bicc
		// no-op.
		{"patched-delete", StrategyPatchedDelete, Update{Remove: [][2]int32{{0, 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(g, Config{Omega: omega, Seed: seed})
			defer e.Close()
			if e.Conn().D.ExtraPrimaries != 0 {
				t.Fatal("the graph needs extension primaries, so every repair would rebuild")
			}
			if _, err := e.Update(tc.u, true); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if rec := st.Rebuilds[len(st.Rebuilds)-1]; rec.Strategies["conn"] != tc.strategy || rec.Strategies["bicc"] != StrategyLazy {
				t.Fatalf("strategies %+v, want conn %s, bicc lazy", rec.Strategies, tc.strategy)
			}
			checkBiccRef(t, e)
			old, d := e.Conn().D, e.Bicc().D
			if old.Graph() == e.Graph() || d.Graph() != e.Graph() {
				t.Fatal("after a patch conn must keep the old graph's decomposition and the lazy build must decompose the served graph")
			}
			sameDecomposition(t, d, prebuilt(e.Graph(), e.K(), seed))
			rm := asym.NewMeter(omega)
			repaired := decomp.Repair(parallel.NewCtx(rm, asym.NewSymTracker(0)), graph.View{G: e.Graph(), M: rm}, old)
			want := rm.Snapshot().Add(biccCostOver(e.Graph(), e.K(), seed, repaired))
			got := e.Stats().BuildCosts["bicc"]
			if got != want {
				t.Errorf("build_costs.bicc %+v, want decomp.Repair plus bicc.BuildOracle %+v", got, want)
			}
			if rebuild := biccCostOver(e.Graph(), e.K(), seed, nil); got.Writes >= rebuild.Writes {
				t.Errorf("build_costs.bicc writes %d, a build with its own decomposition writes %d", got.Writes, rebuild.Writes)
			}
		})
	}

	// Along a patch chain the lazy build repairs the newest decomposition at
	// hand: the previous lazy build's, not conn's from the chain start.
	t.Run("patched-chain", func(t *testing.T) {
		e := New(g, Config{Omega: omega, Seed: seed})
		defer e.Close()
		var prev *decomp.Decomposition
		for i := int32(0); i < 2; i++ {
			if _, err := e.Update(bridge(2*i), true); err != nil {
				t.Fatal(err)
			}
			checkBiccRef(t, e)
			d := e.Bicc().D
			sameDecomposition(t, d, prebuilt(e.Graph(), e.K(), seed))
			if i == 1 {
				cost := func(old *decomp.Decomposition) asym.Cost {
					rm := asym.NewMeter(omega)
					repaired := decomp.Repair(parallel.NewCtx(rm, asym.NewSymTracker(0)), graph.View{G: e.Graph(), M: rm}, old)
					return rm.Snapshot().Add(biccCostOver(e.Graph(), e.K(), seed, repaired))
				}
				want, fromConn := cost(prev), cost(e.Conn().D)
				if want == fromConn {
					t.Fatal("repairing either decomposition costs the same; the check cannot tell them apart")
				}
				if got := e.Stats().BuildCosts["bicc"]; got != want {
					t.Errorf("build_costs.bicc %+v, want decomp.Repair of the previous lazy build's decomposition plus bicc.BuildOracle %+v (from conn's: %+v)",
						got, want, fromConn)
				}
			}
			prev = d
		}
	})
}

// sameDecomposition fails the test unless got stores what want does: the
// graph, k, the three counts, the center and primary bits, the center list
// and the rank directory, read through the exported accessors.
func sameDecomposition(t *testing.T, got, want *decomp.Decomposition) {
	t.Helper()
	if got.Graph() != want.Graph() || got.K() != want.K() || got.NumCenters() != want.NumCenters() ||
		got.PrimaryCount != want.PrimaryCount || got.SecondaryCount != want.SecondaryCount || got.ExtraPrimaries != want.ExtraPrimaries {
		t.Fatalf("decomposition: k=%d, %d centers, counts %d/%d/%d; decomp.Build gives k=%d, %d centers, counts %d/%d/%d",
			got.K(), got.NumCenters(), got.PrimaryCount, got.SecondaryCount, got.ExtraPrimaries,
			want.K(), want.NumCenters(), want.PrimaryCount, want.SecondaryCount, want.ExtraPrimaries)
	}
	m := asym.NewMeter(1)
	for i := 0; i < got.NumCenters(); i++ {
		if a, b := got.Center(m, i), want.Center(m, i); a != b {
			t.Fatalf("center %d is %d; decomp.Build stores %d", i, a, b)
		}
	}
	for v := int32(0); int(v) < got.Graph().N(); v++ {
		if got.IsCenter(m, v) != want.IsCenter(m, v) || got.IsPrimary(m, v) != want.IsPrimary(m, v) || got.CenterIndex(m, v) != want.CenterIndex(m, v) {
			t.Fatalf("vertex %d: center/primary bits or rank differ from decomp.Build", v)
		}
	}
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
