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
// recorded it, so this is the guard that reusing search buffers, accounting
// symmetric words in bulk, or splitting BuildOracle's passes across
// processors changes neither what the builds charge nor their peak
// symmetric footprint.
//
// The reads were last re-pinned when decomp.Build's cluster searches
// stopped walking the ρ path of a neighbor whose nearest primary is
// another cluster's; ops, writes and both high-waters did not move. The
// pins before that are kept as prevReads, and the test re-derives the
// drop as the reads of the skipped walks (decomp.SkippedWalkReads;
// random-regular: 35160).
//
// The re-pin before that, when two redundant scans left BuildOracle, moved
// reads and ops; its old pins are kept as olderReads/olderOps, and the test
// re-derives that difference too:
//
//   - Skipped small-component pass. When the cluster listings cover all n
//     vertices, BuildOracle no longer runs one ρ search plus one
//     CenterIndex (2 reads: a stored center's bit word and rank entry) per
//     vertex. That saves Σ_v cost(ρ search) + 2n reads and Σ_v ops(ρ
//     search) ops (random-regular: 193634 + 16384 reads, 67164 ops). On
//     disconnected-cycles one 5-cycle drew no primary, so the pass still
//     runs there.
//   - One adjacency scan per member in buildLocal. Categories 1a and 3
//     share a scan, saving Σ (1 + deg v) reads over the clustered vertices
//     (random-regular: 8192 · 4 = 32768 reads; no ops).
func TestBuildCostsPinned(t *testing.T) {
	cases := []struct {
		name                 string
		g                    *graph.Graph
		reads, writes, ops   int64
		decompHigh, allHigh  int64
		prevReads            int64
		olderReads, olderOps int64
	}{
		{"random-regular", graph.RandomRegular(8192, 3, 42), 2154274, 32856, 681750, 157, 168, 2189434, 2432220, 748914},
		{"grid", graph.Grid2D(40, 40), 438725, 6690, 131994, 85, 102, 445556, 491624, 143584},
		{"disconnected-cycles", graph.Disconnected(graph.Cycle(5), 3), 865, 45, 265, 13, 25, 865, 895, 265},
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

			// The derivation of the last re-pin.
			if got, want := tc.prevReads-tc.reads, decomp.SkippedWalkReads(d, decomp.Options{}); got != want {
				t.Errorf("reads fell by %d, the skipped walks read %d", got, want)
			}

			// The derivation of the re-pin before, recomputed on a private
			// meter.
			dm := asym.NewMeter(64)
			var scanReads, clustered int64
			smallFree := true
			for v := int32(0); int(v) < tc.g.N(); v++ {
				if d.CenterIndex(dm, d.Rho(dm, nil, v)) < 0 {
					smallFree = false
					continue
				}
				clustered++
				scanReads += 1 + int64(tc.g.Degree(int(v)))
			}
			passReads, passOps := int64(0), int64(0)
			if smallFree {
				passReads, passOps = dm.Reads(), dm.Ops()
			}
			if got, want := tc.olderReads-tc.prevReads, passReads+scanReads; got != want {
				t.Errorf("reads fell by %d, derivation gives %d (pass %d + scan %d over %d clustered vertices)",
					got, want, passReads, scanReads, clustered)
			}
			if got, want := tc.olderOps-tc.ops, passOps; got != want {
				t.Errorf("ops fell by %d, derivation gives %d", got, want)
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
