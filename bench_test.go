// Package repro's root benchmark harness: one benchmark per table and
// figure of the paper (each benchmark's doc comment names the table,
// figure or theorem it measures), plus ablation benches that each switch
// off one design choice of the paper core (docs/architecture.md, "Paper
// core").
//
// Every benchmark reports the cost-model metrics the paper's claims are
// about — asymmetric writes ("writes/op") and Asymmetric-RAM work
// ("work/op") — alongside wall-clock time. Absolute wall-clock numbers are
// meaningless for the reproduction (the substrate is a cost simulator);
// the reported metrics are the measurement.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func report(b *testing.B, c asym.Cost, depth int64) {
	b.ReportMetric(float64(c.Writes), "writes/op")
	b.ReportMetric(float64(c.Reads), "reads/op")
	b.ReportMetric(float64(c.Work()), "work/op")
	if depth > 0 {
		b.ReportMetric(float64(depth), "depth/op")
	}
}

// BenchmarkTable1ConnDense: Table 1 row "connectivity, m ∈ Ω(√ω n)" —
// prior-work contraction (Θ(ωm) work) vs Theorem 4.2 (O(m + ωn)).
func BenchmarkTable1ConnDense(b *testing.B) {
	g := graph.GNM(4096, 32768, 42, true)
	const omega = 64
	b.Run("prior-contraction", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: omega, Seed: 7})
			s.ConnectivityBaseline()
			last = s.Cost()
		}
		report(b, last, 0)
	})
	b.Run("ours-thm4.2", func(b *testing.B) {
		var last asym.Cost
		var depth int64
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: omega, Seed: 7})
			s.ConnectivityParallel(false)
			last, depth = s.Cost(), s.Depth()
		}
		report(b, last, depth)
	})
}

// BenchmarkTable1ConnSparse: Table 1 row "connectivity, m ∈ o(√ω n)" —
// the sublinear-write oracle (Theorem 4.4) vs sequential BFS labeling.
func BenchmarkTable1ConnSparse(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 21)
	for _, omega := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("oracle-omega%d", omega), func(b *testing.B) {
			var last asym.Cost
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: omega, Seed: 5})
				s.NewConnectivityOracle()
				last = s.Cost()
			}
			report(b, last, 0)
		})
	}
	b.Run("bfs-labeling", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: 256, Seed: 5})
			s.ConnectivitySequential(false)
			last = s.Cost()
		}
		report(b, last, 0)
	})
}

// BenchmarkTable1BiccDense: Table 1 biconnectivity — BC labeling (O(m+ωn))
// vs the classic Θ(m)-size output (modeled as the same pass plus m writes).
func BenchmarkTable1BiccDense(b *testing.B) {
	g := graph.GNM(4096, 32768, 17, true)
	const omega = 64
	b.Run("bc-labeling", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: omega, Seed: 3})
			s.NewBCLabeling()
			last = s.Cost()
		}
		report(b, last, 0)
	})
	b.Run("classic-output", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: omega, Seed: 3})
			s.NewBCLabeling()
			s.Meter().Write(g.M()) // the per-edge output array of [21, 32]
			last = s.Cost()
		}
		report(b, last, 0)
	})
}

// BenchmarkTable1BiccSparse: Table 1 biconnectivity, sparse regime — the
// Theorem 5.3 oracle in O(n/√ω) writes.
func BenchmarkTable1BiccSparse(b *testing.B) {
	g := graph.RandomRegular(4096, 3, 31)
	for _, omega := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("omega%d", omega), func(b *testing.B) {
			var last asym.Cost
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: omega, Seed: 9})
				s.NewBiconnectivityOracle()
				last = s.Cost()
			}
			report(b, last, 0)
		})
	}
}

// BenchmarkTable1Query: Table 1 query columns — O(1) for the dense
// structures, O(√ω) connectivity / O(ω) biconnectivity for the oracles.
func BenchmarkTable1Query(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 31)
	for _, omega := range []int{64, 256, 1024} {
		s := core.New(g, core.Config{Omega: omega, Seed: 9})
		bc := s.NewBCLabeling()
		co := s.NewConnectivityOracle()
		bo := s.NewBiconnectivityOracle()
		rng := graph.NewRNG(13)
		pair := func() (int32, int32) {
			return int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		}
		b.Run(fmt.Sprintf("bc-labeling-omega%d", omega), func(b *testing.B) {
			before := bc.QueryCost()
			for i := 0; i < b.N; i++ {
				u, v := pair()
				bc.SameBCC(u, v)
			}
			d := bc.QueryCost().Sub(before)
			b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/query")
		})
		b.Run(fmt.Sprintf("conn-oracle-omega%d", omega), func(b *testing.B) {
			before := co.QueryCost()
			for i := 0; i < b.N; i++ {
				u, v := pair()
				co.Connected(u, v)
			}
			d := co.QueryCost().Sub(before)
			b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/query")
		})
		b.Run(fmt.Sprintf("bicc-oracle-omega%d", omega), func(b *testing.B) {
			before := bo.QueryCost()
			for i := 0; i < b.N; i++ {
				u, v := pair()
				bo.Biconnected(u, v)
			}
			d := bo.QueryCost().Sub(before)
			b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/query")
		})
	}
}

// BenchmarkTable1Crossover: Table 1 "best choice when" column — on a fixed
// bounded-degree graph the winner flips from the dense algorithm to the
// sparse oracle as ω crosses (m/n)².
func BenchmarkTable1Crossover(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 51)
	for _, omega := range []int{4, 64, 1024} {
		b.Run(fmt.Sprintf("dense-omega%d", omega), func(b *testing.B) {
			var last asym.Cost
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: omega, Seed: 13})
				s.ConnectivityParallel(false)
				last = s.Cost()
			}
			report(b, last, 0)
		})
		b.Run(fmt.Sprintf("sparse-omega%d", omega), func(b *testing.B) {
			var last asym.Cost
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: omega, Seed: 13})
				s.NewConnectivityOracle()
				last = s.Cost()
			}
			report(b, last, 0)
		})
	}
}

// BenchmarkFig1Decomposition: Figure 1 / Theorem 3.1 — implicit
// k-decomposition construction across k.
func BenchmarkFig1Decomposition(b *testing.B) {
	g := graph.RandomRegular(8192, 3, 61)
	for _, k := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var last asym.Cost
			var centers int
			for i := 0; i < b.N; i++ {
				m := asym.NewMeter(k * k)
				c := parallel.NewCtx(m, asym.NewSymTracker(0))
				d := decomp.Build(c, graph.View{G: g, M: m}, k, 71, decomp.Options{})
				last, centers = m.Snapshot(), d.NumCenters()
			}
			report(b, last, 0)
			b.ReportMetric(float64(centers), "centers/op")
		})
	}
}

// BenchmarkFig2BCLabeling: Figure 2 / Lemma 5.1 — BC labeling construction
// plus its O(1) queries, on graphs with rich block structure.
func BenchmarkFig2BCLabeling(b *testing.B) {
	g := graph.Lollipop(64, 2048)
	b.Run("construct", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: 64, Seed: 3})
			s.NewBCLabeling()
			last = s.Cost()
		}
		report(b, last, 0)
	})
	s := core.New(g, core.Config{Omega: 64, Seed: 3})
	bc := s.NewBCLabeling()
	b.Run("query", func(b *testing.B) {
		rng := graph.NewRNG(5)
		before := bc.QueryCost()
		for i := 0; i < b.N; i++ {
			bc.SameBCC(int32(rng.Intn(g.N())), int32(rng.Intn(g.N())))
		}
		d := bc.QueryCost().Sub(before)
		b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/query")
	})
}

// BenchmarkFig3LocalGraph: Figure 3 / Lemma 5.4 — local-graph
// reconstruction cost scales as O(k²).
func BenchmarkFig3LocalGraph(b *testing.B) {
	g := graph.RandomRegular(4096, 3, 81)
	for _, k := range []int{4, 8, 16} {
		s := core.New(g, core.Config{Omega: k * k, K: k, Seed: 83})
		bo := s.NewBiconnectivityOracle()
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			rng := graph.NewRNG(85)
			before := bo.QueryCost()
			for i := 0; i < b.N; i++ {
				bo.IsArticulation(int32(rng.Intn(g.N())))
			}
			d := bo.QueryCost().Sub(before)
			b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/query")
			b.ReportMetric(float64(k*k), "ksquared")
		})
	}
}

// BenchmarkThm42BetaSweep: Theorem 4.2 — writes O(n + βm) as β varies.
func BenchmarkThm42BetaSweep(b *testing.B) {
	g := graph.GNM(4096, 65536, 91, true)
	for _, beta := range []float64{1, 0.25, 1.0 / 16, 1.0 / 64} {
		b.Run(fmt.Sprintf("beta%.4f", beta), func(b *testing.B) {
			var last asym.Cost
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: 64, Beta: beta, Seed: 93})
				s.ConnectivityParallel(false)
				last = s.Cost()
			}
			report(b, last, 0)
		})
	}
}

// BenchmarkAlg1ParallelDepth: Lemma 3.7 — the parallel construction's
// fork-join depth stays far below its work as n grows.
func BenchmarkAlg1ParallelDepth(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		g := graph.RandomRegular(n, 3, 95)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var last asym.Cost
			var depth int64
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: 64, Seed: 97})
				s.NewDecomposition(true)
				last, depth = s.Cost(), s.Depth()
			}
			report(b, last, depth)
		})
	}
}

// BenchmarkSec6DegreeBound: §6 — transform cost and oracle on the
// transformed graph for unbounded-degree inputs.
func BenchmarkSec6DegreeBound(b *testing.B) {
	g := graph.PowerLaw(4096, 4, 99)
	b.Run("transform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.BoundDegree(g, 3)
		}
	})
	bd := graph.BoundDegree(g, 3)
	b.Run("oracle-on-transform", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(bd.G, core.Config{Omega: 256, Seed: 101})
			s.NewConnectivityOracle()
			last = s.Cost()
		}
		report(b, last, 0)
	})
}

// --- Ablations: each switches off one design choice of the paper core ---

// BenchmarkAblationSecondary: without secondary centers (Algorithm 1 lines
// 3-12), primary clusters blow past k — measured via max ρ0-cluster size.
func BenchmarkAblationSecondary(b *testing.B) {
	g := graph.RandomRegular(4096, 3, 103)
	k := 8
	m := asym.NewMeter(64)
	c := parallel.NewCtx(m, asym.NewSymTracker(0))
	d := decomp.Build(c, graph.View{G: g, M: m}, k, 105, decomp.Options{})
	qm := asym.NewMeter(64)
	var withMax, withoutMax int
	b.Run("measure", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			with := map[int32]int{}
			without := map[int32]int{}
			for v := int32(0); int(v) < g.N(); v++ {
				with[d.Rho(qm, nil, v)]++
				without[d.Rho0(qm, nil, v)]++
			}
			withMax, withoutMax = 0, 0
			for _, s := range with {
				if s > withMax {
					withMax = s
				}
			}
			for _, s := range without {
				if s > withoutMax {
					withoutMax = s
				}
			}
		}
		b.ReportMetric(float64(withMax), "maxcluster-with")
		b.ReportMetric(float64(withoutMax), "maxcluster-without")
	})
	if withoutMax <= k {
		b.Log("note: sampling happened to cap primary clusters on this seed")
	}
}

// BenchmarkAblationContraction: one LDD round at β=1/ω (Theorem 4.2) vs the
// prior recursive contraction — the writes gap is the headline result.
func BenchmarkAblationContraction(b *testing.B) {
	g := graph.GNM(2048, 32768, 107, true)
	b.Run("single-ldd", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: 64, Seed: 109})
			s.ConnectivityParallel(false)
			last = s.Cost()
		}
		report(b, last, 0)
	})
	b.Run("recursive-contraction", func(b *testing.B) {
		var last asym.Cost
		for i := 0; i < b.N; i++ {
			s := core.New(g, core.Config{Omega: 64, Seed: 109})
			s.ConnectivityBaseline()
			last = s.Cost()
		}
		report(b, last, 0)
	})
}

// BenchmarkAblationBCOutput: BC labeling output (O(n) words) vs the classic
// per-edge array (Θ(m) words) across densities.
func BenchmarkAblationBCOutput(b *testing.B) {
	for _, deg := range []int{4, 16, 64} {
		n := 2048
		g := graph.GNM(n, n*deg/2, 111, true)
		b.Run(fmt.Sprintf("deg%d", deg), func(b *testing.B) {
			var bcWrites int64
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: 64, Seed: 113})
				s.NewBCLabeling()
				bcWrites = s.Cost().Writes
			}
			b.ReportMetric(float64(bcWrites), "bc-writes")
			b.ReportMetric(float64(g.M()), "classic-writes-floor")
		})
	}
}

// BenchmarkAblationK: the k = √ω choice — construction + a query batch is
// minimized near √ω (construction cost falls with k, query cost rises).
func BenchmarkAblationK(b *testing.B) {
	g := graph.RandomRegular(4096, 3, 115)
	const omega = 256 // √ω = 16
	const queries = 4096
	for _, k := range []int{4, 8, 16, 32, 64} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				s := core.New(g, core.Config{Omega: omega, K: k, Seed: 117})
				o := s.NewConnectivityOracle()
				rng := graph.NewRNG(119)
				for q := 0; q < queries; q++ {
					o.Connected(int32(rng.Intn(g.N())), int32(rng.Intn(g.N())))
				}
				total = s.Cost().Work() + o.QueryCost().Work()
			}
			b.ReportMetric(float64(total), "combined-work")
		})
	}
}

// --- Cross-implementation sanity used by the harness (fast, not a bench) ---

func TestHarnessSanity(t *testing.T) {
	// The bench graphs must be exercised by correct algorithms: spot-check
	// a few partitions against union-find ground truth.
	g := graph.GNM(512, 2048, 42, true)
	s := core.New(g, core.Config{Omega: 64, Seed: 7})
	res := s.ConnectivityParallel(false)
	if res.NumComponents != 1 {
		t.Fatalf("components = %d", res.NumComponents)
	}
	s2 := core.New(g, core.Config{Omega: 64, Seed: 7})
	if s2.ConnectivityBaseline().NumComponents != 1 {
		t.Fatal("baseline wrong")
	}
	gr := graph.RandomRegular(512, 3, 21)
	s3 := core.New(gr, core.Config{Omega: 64, Seed: 5})
	o := s3.NewConnectivityOracle()
	if !o.Connected(0, 511) {
		t.Fatal("oracle wrong")
	}
	_ = conn.Result{}
	_ = bicc.Ref{}
}

// BenchmarkAblationTieBreak: the deterministic tie-broken search order of
// §3 vs a per-call random neighbor order. Without the deterministic order,
// ρ stops being a function: repeated queries disagree on a measurable
// fraction of vertices, so clusters are not well-defined (the failure
// Lemma 3.3 exists to prevent).
func BenchmarkAblationTieBreak(b *testing.B) {
	g := graph.Grid2D(48, 48) // grids are tie-rich
	for _, unstable := range []bool{false, true} {
		name := "deterministic"
		if unstable {
			name = "unstable"
		}
		b.Run(name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				m := asym.NewMeter(64)
				c := parallel.NewCtx(m, asym.NewSymTracker(0))
				d := decomp.Build(c, graph.View{G: g, M: m}, 8, 5,
					decomp.Options{UnstableTieBreak: unstable})
				qm := asym.NewMeter(1)
				diff := 0
				for v := int32(0); int(v) < g.N(); v++ {
					if d.Rho(qm, nil, v) != d.Rho(qm, nil, v) {
						diff++
					}
				}
				rate = float64(diff) / float64(g.N())
			}
			b.ReportMetric(rate, "rho-disagreement-rate")
		})
	}
}

// BenchmarkOracleSpanningForest: the §4.3 spanning-forest enumeration —
// zero writes, O(√ω·n) reads.
func BenchmarkOracleSpanningForest(b *testing.B) {
	g := graph.RandomRegular(4096, 3, 7)
	s := core.New(g, core.Config{Omega: 64, Seed: 9})
	o := s.NewConnectivityOracle()
	var edges int
	before := o.QueryCost()
	for i := 0; i < b.N; i++ {
		edges = len(o.SpanningForest())
	}
	d := o.QueryCost().Sub(before)
	b.ReportMetric(float64(edges), "forest-edges")
	b.ReportMetric(float64(d.Writes)/float64(b.N), "writes/op")
	b.ReportMetric(float64(d.Reads)/float64(b.N), "reads/op")
}

// BenchmarkBatchQueries: batch query throughput for both oracles (§5.4:
// independent queries run as a parallel for).
func BenchmarkBatchQueries(b *testing.B) {
	g := graph.RandomRegular(4096, 3, 11)
	s := core.New(g, core.Config{Omega: 64, Seed: 13})
	co := s.NewConnectivityOracle()
	bo := s.NewBiconnectivityOracle()
	rng := graph.NewRNG(15)
	vs := make([]int32, 1024)
	pairs := make([][2]int32, 256)
	for i := range vs {
		vs[i] = int32(rng.Intn(g.N()))
	}
	for i := range pairs {
		pairs[i] = [2]int32{int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))}
	}
	b.Run("connectivity-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			co.ComponentsBatch(vs)
		}
	})
	b.Run("biconnectivity-256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bo.BiconnectedBatch(pairs)
		}
	})
}
