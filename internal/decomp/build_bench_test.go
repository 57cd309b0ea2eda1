package decomp

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// BenchmarkBuild times Build alone on a uniform 3-regular graph (ω = 64,
// k = 8): the per-layer curve under the bicc and conn oracle builds. Every
// ρ the build needs is recomputed by a search, so this is mostly search
// speed; reads/vertex and writes/op are the cost model's view of the same
// run.
func BenchmarkBuild(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 42)
	b.ReportAllocs()
	var reads, writes int64
	for i := 0; i < b.N; i++ {
		m := asym.NewMeter(64)
		Build(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, 8, 7, Options{})
		reads += m.Reads()
		writes += m.Writes()
	}
	b.ReportMetric(float64(reads)/float64(b.N)/float64(g.N()), "reads/vertex")
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
}
