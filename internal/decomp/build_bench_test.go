package decomp

import (
	"fmt"
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

// benchSink keeps the benchmarked calls' results live.
var benchSink int

// queryBenchDecomp is the decomposition the per-query microbenchmarks run
// on: a uniform 3-regular graph of 65536 vertices at k = 8.
func queryBenchDecomp(b *testing.B) *Decomposition {
	b.Helper()
	d, _, _ := build(graph.RandomRegular(65536, 3, 42), 8, 7, Options{})
	return d
}

// BenchmarkRhoS times one ρ query on a warm scratch, the conn query
// answer's inner search: the per-layer curve under serve's conn answer.
// Vertices are visited in a fixed stride so successive queries land in
// different clusters.
func BenchmarkRhoS(b *testing.B) {
	d := queryBenchDecomp(b)
	n := d.g.N()
	sc := NewScratch()
	m := asym.NewMeter(64)
	for v := 0; v < n; v += 97 {
		d.RhoS(m, nil, sc, int32(v))
	}
	m = asym.NewMeter(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += int(d.RhoS(m, nil, sc, int32(i*7919%n)))
	}
	b.ReportMetric(float64(m.Reads())/float64(b.N), "reads/op")
}

// BenchmarkNeighborCentersS times one clusters-graph neighbor listing on a
// warm scratch, the search behind a bicc cluster-cache miss and the conn
// and bicc builds: one cluster listing plus a ρ query per boundary edge.
func BenchmarkNeighborCentersS(b *testing.B) {
	d := queryBenchDecomp(b)
	nc := d.NumCenters()
	centers := make([]int32, nc)
	for i := range centers {
		centers[i] = d.Center(asym.NewMeter(64), i)
	}
	sc := NewScratch()
	m := asym.NewMeter(64)
	for i := 0; i < nc; i += 97 {
		d.NeighborCentersS(m, nil, sc, centers[i])
	}
	m = asym.NewMeter(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(d.NeighborCentersS(m, nil, sc, centers[i*7919%nc]))
	}
	b.ReportMetric(float64(m.Reads())/float64(b.N), "reads/op")
}

// BenchmarkCenterIndex times one center → clusters-graph id lookup, the
// step every conn query and bicc cluster lookup takes after its ρ search.
// Lookups are on stored centers, as on the query path, at two sizes 16×
// apart: reads/op is 2 at both, so neither it nor ns/op should grow with n.
func BenchmarkCenterIndex(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d, _, _ := build(graph.RandomRegular(n, 3, 42), 8, 7, Options{})
			centers := d.centers.Raw()
			nc := len(centers)
			m := asym.NewMeter(64)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += d.CenterIndex(m, centers[i*7919%nc])
			}
			b.ReportMetric(float64(m.Reads())/float64(b.N), "reads/op")
		})
	}
}
