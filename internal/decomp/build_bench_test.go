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
// run. Both passes run one chunk per processor, so compare -cpu 1,2 (make
// bench-build): ns/op should fall with the processor count, while
// reads/vertex and writes/op must not move.
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

// BenchmarkRepair times Repair on BenchmarkBuild's graph and k: each op
// repairs the decomposition of one graph of a fixed sequence onto the next,
// which differs by one batch of 16 random edge insertions and removals
// (the churn-bicc update size). writes/op is what repairing one such batch
// pays, against BenchmarkBuild's writes/op for a rebuild; it is the copied
// center bits plus, when a center flipped (flips/op), the center list and
// rank directory. touched/op counts the primary clusters the repair redid.
// A lazy bicc build in serve repairs conn's decomposition, which patched
// conn rungs keep for up to RebaseEvery batches: BenchmarkRepairChain
// measures repairs across such chains.
func BenchmarkRepair(b *testing.B) {
	const batches = 32
	gs := []*graph.Graph{graph.RandomRegular(8192, 3, 42)}
	rng := graph.NewRNG(1)
	for i := 0; i < batches; i++ {
		gs = append(gs, randomBatch(b, gs[i], rng, 16, 0.5))
	}
	ds := make([]*Decomposition, len(gs))
	for i, g := range gs {
		ds[i], _, _ = build(g, 8, 7, Options{})
	}
	var flips [batches]int
	for i := range flips {
		flips[i] = ds[i+1].isCenter.Diff(asym.NewMeter(1), ds[i].isCenter)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var writes, touched, flipped int64
	for i := 0; i < b.N; i++ {
		j := i % batches
		m := asym.NewMeter(64)
		_, t := repair(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: gs[j+1], M: m}, ds[j], gs[j+1].N())
		if t < 0 {
			b.Fatalf("batch %d fell back to Build", j)
		}
		writes += m.Writes()
		touched += int64(t)
		flipped += int64(flips[j])
	}
	b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(touched)/float64(b.N), "touched/op")
	b.ReportMetric(float64(flipped)/float64(b.N), "flips/op")
}

// BenchmarkRepairChain times Repair across cumulative chains on
// BenchmarkBuild's graph and k: batches=j repairs the base graph's
// decomposition onto the graph after j batches of 16 random edge
// insertions and removals, with no size fallback. changed/op counts the
// vertices whose adjacency lists differ. Compare ns/op with BenchmarkBuild
// at the same -cpu: the chain length where they cross sets
// repairBreakEven, Repair's fallback to Build.
func BenchmarkRepairChain(b *testing.B) {
	gs := []*graph.Graph{graph.RandomRegular(8192, 3, 42)}
	rng := graph.NewRNG(1)
	for i := 0; i < 64; i++ {
		gs = append(gs, randomBatch(b, gs[i], rng, 16, 0.5))
	}
	base, _, _ := build(gs[0], 8, 7, Options{})
	for _, j := range []int{1, 4, 8, 16, 64} {
		g := gs[j]
		changed := len(graph.ChangedVertices(asym.NewMeter(1), gs[0], g))
		b.Run(fmt.Sprintf("batches=%d", j), func(b *testing.B) {
			var writes, touched int64
			for i := 0; i < b.N; i++ {
				m := asym.NewMeter(64)
				_, t := repair(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, base, g.N())
				writes += m.Writes()
				touched += int64(t)
			}
			b.ReportMetric(float64(writes)/float64(b.N), "writes/op")
			b.ReportMetric(float64(touched)/float64(b.N), "touched/op")
			b.ReportMetric(float64(changed), "changed/op")
		})
	}
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
