package bicc

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/asym"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// withSmallComponents returns base plus count disjoint triangles and
// 3-vertex paths: components smaller than k = 8, most of which draw no
// primary, so BuildOracle must run its small-component pass.
func withSmallComponents(base *graph.Graph, count int) *graph.Graph {
	edges := append([][2]int32(nil), base.Edges()...)
	n := int32(base.N())
	for i := 0; i < count; i++ {
		a, b, c := n, n+1, n+2
		edges = append(edges, [2]int32{a, b}, [2]int32{b, c})
		if i%2 == 0 {
			edges = append(edges, [2]int32{a, c})
		}
		n += 3
	}
	return graph.FromEdges(int(n), edges)
}

// TestBuildOracleParallelDeterministic holds the parallel passes of
// BuildOracle to the one-processor build: under GOMAXPROCS(1) the passes
// run as one chunk each, under the default one chunk per processor. Every
// stored field, NumBCC, the charged reads/writes/ops and the symmetric
// high-water must be equal, and a sample of answers must match Ref. Run
// under -race, the repeated default builds are the data-race check of the
// chunked passes.
func TestBuildOracleParallelDeterministic(t *testing.T) {
	cases := []struct {
		name       string
		gen        func() *graph.Graph // built only if the subtest runs
		k          int
		seed       uint64
		smallComps bool // the small-component pass must run
	}{
		{"uniform", func() *graph.Graph { return graph.RandomRegular(8192, 3, 42) }, 8, 7, false},
		// The engine-bicc-skew benchmark graph (n = 130770 after bounding).
		{"powerlaw", func() *graph.Graph { return graph.BoundDegree(graph.PowerLaw(16384, 4, 99), 3).G }, 8, 7, false},
		{"small-components", func() *graph.Graph { return withSmallComponents(graph.RandomRegular(1024, 3, 5), 60) }, 8, 7, true},
		// Seed 0 draws no primary at all: np = 0, every component small.
		{"no-centers", func() *graph.Graph { return graph.Disconnected(graph.Cycle(3), 2) }, 50, 0, true},
	}
	type result struct {
		o    *Oracle
		cost asym.Cost
		high int64
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen()
			dm := asym.NewMeter(64)
			d := decomp.Build(parallel.NewCtx(dm, nil), graph.View{G: g, M: dm}, tc.k, tc.seed, decomp.Options{})
			small := false
			for v := int32(0); int(v) < g.N() && !small; v++ {
				small = d.CenterIndex(dm, d.Rho(dm, nil, v)) < 0
			}
			if small != tc.smallComps {
				t.Fatalf("graph has primary-free small components = %v, want %v", small, tc.smallComps)
			}
			build := func() result {
				m := asym.NewMeter(64)
				sym := asym.NewSymTracker(0)
				o := BuildOracle(parallel.NewCtx(m, sym), graph.View{G: g, M: m}, d, tc.k, tc.seed)
				return result{o, m.Snapshot(), sym.HighWater()}
			}
			prev := runtime.GOMAXPROCS(1)
			want := build()
			runtime.GOMAXPROCS(prev)
			for i := 0; i < 3; i++ {
				got := build()
				if got.cost != want.cost || got.high != want.high {
					t.Fatalf("build %d at GOMAXPROCS=%d charged %v, high-water %d; one processor charged %v, high-water %d",
						i, prev, got.cost, got.high, want.cost, want.high)
				}
				if got.o.NumBCC != want.o.NumBCC {
					t.Fatalf("build %d: NumBCC = %d, one processor gave %d", i, got.o.NumBCC, want.o.NumBCC)
				}
				if !reflect.DeepEqual(got.o, want.o) {
					t.Fatalf("build %d at GOMAXPROCS=%d stored different fields than the one-processor build", i, prev)
				}
			}

			ref := NewRef(g)
			o := want.o
			if o.NumBCC != ref.NumBCC {
				t.Fatalf("NumBCC = %d, want %d", o.NumBCC, ref.NumBCC)
			}
			qm := asym.NewMeter(64)
			rng := graph.NewRNG(tc.seed + 1)
			edges := g.Edges()
			for i := 0; i < 300; i++ {
				u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
				if got, want := o.IsArticulation(qm, nil, u), ref.IsArticulation[u]; got != want {
					t.Fatalf("IsArticulation(%d) = %v, want %v", u, got, want)
				}
				if got, want := o.Biconnected(qm, nil, u, v), u == v || ref.SameBCC(u, v); got != want {
					t.Fatalf("Biconnected(%d,%d) = %v, want %v", u, v, got, want)
				}
				if got, want := o.OneEdgeConnected(qm, nil, u, v), ref.TwoEdgeCC[u] == ref.TwoEdgeCC[v]; got != want {
					t.Fatalf("OneEdgeConnected(%d,%d) = %v, want %v", u, v, got, want)
				}
				j := rng.Intn(len(edges))
				if e := edges[j]; e[0] != e[1] {
					if got, want := o.IsBridge(qm, nil, e[0], e[1]), ref.BridgeSet[j]; got != want {
						t.Fatalf("IsBridge(%d,%d) = %v, want %v", e[0], e[1], got, want)
					}
				}
			}
		})
	}
}
