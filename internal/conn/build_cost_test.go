package conn

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestBuildCostsPinned pins the asymmetric costs and the symmetric-memory
// high-water of BuildOracle followed by EnsureForest (ω = 64, k = 8, seed
// 7), and of the VisitSpanningForest enumeration on a fresh meter. Every
// ρ and clusters-graph listing in these passes is a recomputing search,
// so this is the guard that reusing search buffers, or accounting
// symmetric words in bulk, changes neither what they charge nor their peak
// symmetric footprint.
func TestBuildCostsPinned(t *testing.T) {
	type cost struct{ reads, writes, ops, high int64 }
	cases := []struct {
		name         string
		g            *graph.Graph
		build, visit cost
	}{
		{"random-regular", graph.RandomRegular(8192, 3, 42), cost{2148241, 55693, 632288, 168}, cost{806497, 0, 242114, 1678}},
		{"grid", graph.Grid2D(40, 40), cost{446705, 11071, 123180, 102}, cost{160887, 0, 45635, 409}},
		{"disconnected-cycles", graph.Disconnected(graph.Cycle(5), 3), cost{731, 87, 158, 15}, cost{376, 0, 122, 17}},
	}
	check := func(t *testing.T, phase string, m *asym.Meter, sym *asym.SymTracker, want cost) {
		t.Helper()
		got := cost{m.Reads(), m.Writes(), m.Ops(), sym.HighWater()}
		if got != want {
			t.Errorf("%s charged r=%d w=%d o=%d high=%d, want r=%d w=%d o=%d high=%d", phase,
				got.reads, got.writes, got.ops, got.high, want.reads, want.writes, want.ops, want.high)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := asym.NewMeter(64)
			sym := asym.NewSymTracker(0)
			o := BuildOracle(parallel.NewCtx(m, sym), graph.View{G: tc.g, M: m}, 8, 7)
			o.EnsureForest(m)
			check(t, "BuildOracle+EnsureForest", m, sym, tc.build)

			qm := asym.NewMeter(64)
			qsym := asym.NewSymTracker(0)
			edges := 0
			o.VisitSpanningForest(qm, qsym, func(u, v int32) { edges++ })
			if want := o.forest.Size(); edges != want {
				t.Fatalf("VisitSpanningForest emitted %d edges, spanning forest has %d", edges, want)
			}
			check(t, "VisitSpanningForest", qm, qsym, tc.visit)
		})
	}
}

// BenchmarkBuildOracle times BuildOracle on a uniform 3-regular graph
// (ω = 64, k = 8): the conn layer's curve, which includes the
// decomp.Build it runs first (BenchmarkBuild in package decomp isolates
// that part).
func BenchmarkBuildOracle(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 42)
	b.ReportAllocs()
	var reads, writes int64
	for i := 0; i < b.N; i++ {
		m := asym.NewMeter(64)
		BuildOracle(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, 8, 7)
		reads += m.Reads()
		writes += m.Writes()
	}
	b.ReportMetric(float64(reads)/float64(b.N)/float64(g.N()), "reads/vertex")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
