package conn

import (
	"reflect"
	"testing"

	"repro/internal/asym"
	"repro/internal/decomp"
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
//
// The build's reads were last re-pinned when decomp.Build's cluster
// searches stopped walking the ρ path of a neighbor whose nearest primary
// is another cluster's; its ops, writes and high-water and the whole
// VisitSpanningForest cost did not move. The build's reads before that are
// kept as prevReads, and the test re-derives the drop as the reads of the
// skipped walks (decomp.SkippedWalkReads; random-regular: 35160).
func TestBuildCostsPinned(t *testing.T) {
	type cost struct{ reads, writes, ops, high int64 }
	cases := []struct {
		name         string
		g            *graph.Graph
		build, visit cost
		prevReads    int64
	}{
		{"random-regular", graph.RandomRegular(8192, 3, 42), cost{2113081, 55693, 632288, 168}, cost{806497, 0, 242114, 1678}, 2148241},
		{"grid", graph.Grid2D(40, 40), cost{439874, 11071, 123180, 102}, cost{160887, 0, 45635, 409}, 446705},
		{"disconnected-cycles", graph.Disconnected(graph.Cycle(5), 3), cost{731, 87, 158, 15}, cost{376, 0, 122, 17}, 731},
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
			if got, want := tc.prevReads-tc.build.reads, decomp.SkippedWalkReads(o.D, decomp.Options{}); got != want {
				t.Errorf("build reads fell by %d, the skipped walks read %d", got, want)
			}

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

// TestBuildOverMatchesBuildOracle holds BuildOracle to what it is:
// decomp.Build followed by BuildOver. Over a decomposition built on the
// same meter and tracker, BuildOver must produce a deeply equal oracle at
// the same asymmetric cost and symmetric high-water, which is what lets a
// caller share one decomposition between the conn and bicc oracles.
func TestBuildOverMatchesBuildOracle(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"random-regular", graph.RandomRegular(1000, 3, 42)},
		{"grid", graph.Grid2D(30, 30)},
		{"disconnected-cycles", graph.Disconnected(graph.Cycle(5), 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := asym.NewMeter(64)
			sym := asym.NewSymTracker(0)
			want := BuildOracle(parallel.NewCtx(m, sym), graph.View{G: tc.g, M: m}, 8, 7)

			m2 := asym.NewMeter(64)
			sym2 := asym.NewSymTracker(0)
			c := parallel.NewCtx(m2, sym2)
			d := decomp.Build(c, graph.View{G: tc.g, M: m2}, 8, 7, decomp.Options{})
			got := BuildOver(c, m2, d, 7)

			if !reflect.DeepEqual(got, want) {
				t.Error("BuildOver over decomp.Build differs from BuildOracle")
			}
			if m2.Snapshot() != m.Snapshot() || sym2.HighWater() != sym.HighWater() {
				t.Errorf("decomp.Build+BuildOver charged %+v high=%d, BuildOracle %+v high=%d",
					m2.Snapshot(), sym2.HighWater(), m.Snapshot(), sym.HighWater())
			}
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
