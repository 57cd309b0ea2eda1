package bicc

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestBuildCostsPinned pins the asymmetric costs and the symmetric-memory
// high-water of decomp.Build followed by BuildOracle (ω = 64, k = 8, seed
// 7). The builds recompute ρ with a search wherever no cluster listing has
// recorded it, so this is the guard that reusing search buffers, or
// accounting symmetric words in bulk, changes neither what the builds
// charge nor their peak symmetric footprint.
func TestBuildCostsPinned(t *testing.T) {
	cases := []struct {
		name                string
		g                   *graph.Graph
		reads, writes, ops  int64
		decompHigh, allHigh int64
	}{
		{"random-regular", graph.RandomRegular(8192, 3, 42), 2432220, 32856, 748914, 157, 168},
		{"grid", graph.Grid2D(40, 40), 491624, 6690, 143584, 85, 102},
		{"disconnected-cycles", graph.Disconnected(graph.Cycle(5), 3), 895, 45, 265, 13, 25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := asym.NewMeter(64)
			sym := asym.NewSymTracker(0)
			c := parallel.NewCtx(m, sym)
			vw := graph.View{G: tc.g, M: m}
			d := decomp.Build(c, vw, 8, 7, decomp.Options{})
			if hw := sym.HighWater(); hw != tc.decompHigh {
				t.Errorf("decomp.Build symmetric high-water = %d, want %d", hw, tc.decompHigh)
			}
			BuildOracle(c, vw, d, 8, 7)
			if hw := sym.HighWater(); hw != tc.allHigh {
				t.Errorf("BuildOracle symmetric high-water = %d, want %d", hw, tc.allHigh)
			}
			if m.Reads() != tc.reads || m.Writes() != tc.writes || m.Ops() != tc.ops {
				t.Errorf("build charged r=%d w=%d o=%d, want r=%d w=%d o=%d",
					m.Reads(), m.Writes(), m.Ops(), tc.reads, tc.writes, tc.ops)
			}
		})
	}
}

// BenchmarkBuildOracle times BuildOracle alone, over a decomposition built
// once outside the timer (uniform 3-regular graph, ω = 64, k = 8) — the
// bicc layer's own curve, without decomp.Build's.
func BenchmarkBuildOracle(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 42)
	dm := asym.NewMeter(64)
	d := decomp.Build(parallel.NewCtx(dm, nil), graph.View{G: g, M: dm}, 8, 7, decomp.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	var reads, writes int64
	for i := 0; i < b.N; i++ {
		m := asym.NewMeter(64)
		BuildOracle(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, d, 8, 7)
		reads += m.Reads()
		writes += m.Writes()
	}
	b.ReportMetric(float64(reads)/float64(b.N)/float64(g.N()), "reads/vertex")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
