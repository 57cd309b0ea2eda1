// Command wecbench regenerates the paper's evaluation: one mode per table
// or figure of "Implicit Decomposition for Write-Efficient Connectivity
// Algorithms" (see DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results).
//
// Usage:
//
//	wecbench -exp t1conn|t1sparse|t1bicc|t1query|crossover|decomp|bclabel|localgraph|beta|alg1depth|sec6|scaling|all
//
// Beyond the paper tables, -exp serve is a load generator for the oracled
// query daemon (cmd/oracled): it drives the HTTP /batch endpoint with a
// configurable connectivity/biconnectivity query mix and reports QPS,
// latency percentiles, and the daemon's per-kind cost-model telemetry (see
// the serve* flags in serve.go), -exp multitenant is the end-to-end gate
// on the multi-graph registry: N graphs behind one daemon, verified
// isolation, shared-pool admission control (see multitenant.go), and
// -exp restart is the end-to-end gate on the durable store: a real
// oracled process SIGKILL'd under churn and recovered from its -datadir
// with reference-verified answers (see restart.go). None of these are part
// of "all" (they measure the serving layer, not a paper claim); the
// repository benchmark for serving-layer performance is perfbench (see
// docs/benchmark.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/asym"
	"repro/internal/core"
	"repro/internal/graph"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see DESIGN.md)")
	scale := flag.Int("scale", 1, "multiply instance sizes by this factor")
	flag.Parse()
	runners := map[string]func(int){
		"t1conn":      t1conn,
		"t1sparse":    t1sparse,
		"t1bicc":      t1bicc,
		"t1query":     t1query,
		"crossover":   crossover,
		"decomp":      decompStats,
		"bclabel":     bclabel,
		"localgraph":  localgraph,
		"beta":        betaSweep,
		"alg1depth":   alg1depth,
		"sec6":        sec6,
		"scaling":     scaling,
		"serve":       serveBench,
		"multitenant": multitenantBench,
		"restart":     restartBench,
	}
	if *exp == "all" {
		for _, id := range []string{"t1conn", "t1sparse", "t1bicc", "t1query",
			"crossover", "decomp", "bclabel", "localgraph", "beta", "alg1depth", "sec6", "scaling"} {
			runners[id](*scale)
		}
		return
	}
	r, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	r(*scale)
}

func header(id, claim string) {
	fmt.Printf("\n== %s — %s\n", id, claim)
}

// t1conn: Table 1, dense connectivity. Prior work Θ(ωm) vs ours O(m + ωn).
func t1conn(scale int) {
	header("T1-conn-dense", "parallel connectivity: prior Θ(ωm) work vs ours O(m+ωn)")
	fmt.Printf("%8s %9s %6s | %12s %12s | %12s %12s | %7s\n",
		"n", "m", "ω", "prior wr", "prior work", "ours wr", "ours work", "speedup")
	for _, tc := range []struct {
		n, deg, omega int
	}{
		{1 << 12 * scale, 8, 32},
		{1 << 12 * scale, 16, 32},
		{1 << 13 * scale, 8, 64},
		{1 << 13 * scale, 16, 128},
	} {
		g := graph.GNM(tc.n, tc.n*tc.deg/2, 42, true)
		base := core.New(g, core.Config{Omega: tc.omega, Seed: 7})
		base.ConnectivityBaseline()
		ours := core.New(g, core.Config{Omega: tc.omega, Seed: 7})
		ours.ConnectivityParallel(false)
		cb, co := base.Cost(), ours.Cost()
		fmt.Printf("%8d %9d %6d | %12d %12d | %12d %12d | %6.1fx\n",
			g.N(), g.M(), tc.omega, cb.Writes, cb.Work(), co.Writes, co.Work(),
			float64(cb.Work())/float64(co.Work()))
	}
}

// t1sparse: Table 1, sparse (bounded-degree) oracle: o(n) writes, O(√ω m) work.
func t1sparse(scale int) {
	header("T1-conn-sparse", "connectivity oracle: writes O(n/√ω), work O(√ω·n)")
	fmt.Printf("%8s %6s %5s | %10s %10s %12s | %10s\n",
		"n", "ω", "k", "writes", "writes/n", "work", "BFS writes")
	n := (1 << 14) * scale
	g := graph.RandomRegular(n, 3, 21)
	for _, omega := range []int{16, 64, 256, 1024} {
		s := core.New(g, core.Config{Omega: omega, Seed: 5})
		s.NewConnectivityOracle()
		c := s.Cost()
		seq := core.New(g, core.Config{Omega: omega, Seed: 5})
		seq.ConnectivitySequential(false)
		fmt.Printf("%8d %6d %5d | %10d %10.3f %12d | %10d\n",
			n, omega, s.K(), c.Writes, float64(c.Writes)/float64(n), c.Work(),
			seq.Cost().Writes)
	}
}

// t1bicc: Table 1, biconnectivity. Dense regime: BC labeling O(m+ωn) vs
// the classic Θ(ωm) output. Sparse regime: the Theorem 5.3 oracle's
// O(n/√ω) writes vs BC labeling's O(n) on bounded-degree inputs.
func t1bicc(scale int) {
	header("T1-bicc-dense", "biconnectivity: BC labeling writes O(n) vs classic Θ(m) output")
	fmt.Printf("%8s %9s %6s | %10s %12s | %10s %12s\n",
		"n", "m", "ω", "classic wr", "classic work", "BC wr", "BC work")
	for _, tc := range []struct{ n, deg, omega int }{
		{1 << 12 * scale, 8, 64},
		{1 << 12 * scale, 16, 64},
	} {
		g := graph.GNM(tc.n, tc.n*tc.deg/2, 17, true)
		s := core.New(g, core.Config{Omega: tc.omega, Seed: 3})
		s.NewBCLabeling()
		c := s.Cost()
		// Classic output: the Tarjan–Vishkin low/high pass plus an m-word
		// edge-label array.
		classicWrites := c.Writes + int64(g.M())
		classicWork := c.Work() + int64(tc.omega)*int64(g.M())
		fmt.Printf("%8d %9d %6d | %10d %12d | %10d %12d\n",
			g.N(), g.M(), tc.omega, classicWrites, classicWork,
			c.Writes, c.Work())
	}

	header("T1-bicc-sparse", "bounded-degree: oracle writes O(n/√ω) vs BC labeling O(n)")
	fmt.Printf("%8s %6s %5s | %10s %10s | %10s\n",
		"n", "ω", "k", "oracle wr", "wr/n", "BC wr")
	n := (1 << 13) * scale
	g := graph.RandomRegular(n, 3, 19)
	for _, omega := range []int{256, 1024, 4096} {
		so := core.New(g, core.Config{Omega: omega, Seed: 3})
		so.NewBiconnectivityOracle()
		bl := core.New(g, core.Config{Omega: omega, Seed: 3})
		bl.NewBCLabeling()
		fmt.Printf("%8d %6d %5d | %10d %10.3f | %10d\n",
			n, omega, so.K(), so.Cost().Writes,
			float64(so.Cost().Writes)/float64(n), bl.Cost().Writes)
	}
}

// t1query: Table 1 query costs: O(1) dense, O(√ω) conn / O(ω) bicc sparse.
func t1query(scale int) {
	header("T1-query", "query reads: BC labeling O(1); oracles O(√ω) conn, O(ω) bicc")
	n := (1 << 13) * scale
	g := graph.RandomRegular(n, 3, 31)
	fmt.Printf("%6s %5s | %12s %12s %12s\n", "ω", "k", "bc reads", "conn reads", "bicc reads")
	for _, omega := range []int{16, 64, 256} {
		s := core.New(g, core.Config{Omega: omega, Seed: 9})
		bc := s.NewBCLabeling()
		co := s.NewConnectivityOracle()
		bo := s.NewBiconnectivityOracle()
		rng := graph.NewRNG(77)
		const q = 300
		for i := 0; i < q; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			bc.SameBCC(u, v)
			co.Connected(u, v)
			bo.Biconnected(u, v)
		}
		fmt.Printf("%6d %5d | %12.1f %12.1f %12.1f\n", omega, s.K(),
			float64(bc.QueryCost().Reads)/q,
			float64(co.QueryCost().Reads)/q,
			float64(bo.QueryCost().Reads)/q)
	}
}

// crossover: Table 1 "best choice" column: dense alg wins when m ∈ Ω(√ω n),
// sparse oracle when m ∈ o(√ω n). With bounded degree the knob is ω.
func crossover(scale int) {
	header("T1-crossover", "construction work: dense O(m+ωn) vs sparse O(√ω·m); crossover near m=√ω·n")
	n := (1 << 13) * scale
	fmt.Printf("%8s %6s %8s | %14s %14s | %s\n",
		"n", "ω", "√ω·n/m", "dense work", "sparse work", "winner")
	g := graph.RandomRegular(n, 3, 51)
	m := g.M()
	for _, omega := range []int{4, 16, 64, 256, 1024, 4096} {
		dense := core.New(g, core.Config{Omega: omega, Seed: 13})
		dense.ConnectivityParallel(false)
		sparse := core.New(g, core.Config{Omega: omega, Seed: 13})
		sparse.NewConnectivityOracle()
		dw, sw := dense.Cost().Work(), sparse.Cost().Work()
		win := "dense"
		if sw < dw {
			win = "sparse-oracle"
		}
		sqrtOmega := 1
		for sqrtOmega*sqrtOmega < omega {
			sqrtOmega++
		}
		fmt.Printf("%8d %6d %8.2f | %14d %14d | %s\n",
			n, omega, float64(sqrtOmega*n)/float64(m), dw, sw, win)
	}
}

// decompStats: Figure 1 / Theorem 3.1: decomposition shape and costs.
func decompStats(scale int) {
	header("F1-decomp", "implicit k-decomposition: |S|=O(n/k), clusters ≤ k, ρ cost O(k)")
	n := (1 << 13) * scale
	g := graph.RandomRegular(n, 3, 61)
	fmt.Printf("%5s | %8s %8s %8s | %10s %10s | %10s\n",
		"k", "|S|", "n/k", "max|C|", "build wr", "build ops", "ρ reads")
	for _, k := range []int{4, 8, 16, 32} {
		s := core.New(g, core.Config{Omega: k * k, K: k, Seed: 71})
		d := s.NewDecomposition(false)
		maxC := 0
		sizes := map[int32]int{}
		for v := int32(0); int(v) < n; v++ {
			sizes[d.Center(v)]++
		}
		for _, sz := range sizes {
			if sz > maxC {
				maxC = sz
			}
		}
		rhoReads := float64(d.QueryCost().Reads) / float64(n)
		c := s.Cost()
		fmt.Printf("%5d | %8d %8d %8d | %10d %10d | %10.1f\n",
			k, d.NumCenters(), n/k, maxC, c.Writes, c.Reads+c.Ops, rhoReads)
	}
}

// bclabel: Figure 2 / Lemma 5.1: the BC labeling on the paper's own graph.
func bclabel(int) {
	header("F2-bclabel", "BC labeling of the Figure 2 graph (0-indexed)")
	g := graph.FromEdges(9, [][2]int32{
		{0, 1}, {0, 2}, {1, 2}, {1, 3}, {3, 5}, {0, 5}, {5, 6}, {6, 0},
		{1, 4}, {5, 7}, {7, 8}, {8, 5},
	})
	s := core.New(g, core.Config{Omega: 8, Seed: 1})
	bc := s.NewBCLabeling()
	fmt.Printf("bridges:")
	for _, e := range g.Edges() {
		if bc.IsBridge(e[0], e[1]) {
			fmt.Printf(" (%d,%d)", e[0], e[1])
		}
	}
	fmt.Printf("\narticulation points:")
	for v := int32(0); v < 9; v++ {
		if bc.IsArticulation(v) {
			fmt.Printf(" %d", v)
		}
	}
	fmt.Printf("\nbiconnected components: %d\n", bc.NumBCC())
	labels := map[int32][]int32{}
	for _, e := range g.Edges() {
		l := bc.EdgeLabel(e[0], e[1])
		labels[l] = append(labels[l], e[0], e[1])
	}
	for l, vs := range labels {
		set := map[int32]bool{}
		for _, v := range vs {
			set[v] = true
		}
		fmt.Printf("  label %d vertices %d\n", l, len(set))
	}
	fmt.Printf("construction: %v\n", s.Cost())
}

// localgraph: Figure 3 / Lemma 5.4: local graph construction cost O(k²).
func localgraph(scale int) {
	header("F3-localgraph", "biconnectivity oracle query reads scale as O(k²)")
	n := (1 << 12) * scale
	g := graph.RandomRegular(n, 3, 81)
	fmt.Printf("%5s | %12s %8s\n", "k", "query reads", "k²")
	for _, k := range []int{4, 8, 16} {
		s := core.New(g, core.Config{Omega: k * k, K: k, Seed: 83})
		bo := s.NewBiconnectivityOracle()
		rng := graph.NewRNG(85)
		const q = 100
		for i := 0; i < q; i++ {
			bo.IsArticulation(int32(rng.Intn(n)))
		}
		fmt.Printf("%5d | %12.1f %8d\n", k, float64(bo.QueryCost().Reads)/q, k*k)
	}
}

// betaSweep: Theorem 4.2: writes O(n + βm) as β varies.
func betaSweep(scale int) {
	header("Thm4.2-beta", "parallel connectivity writes O(n+βm), work O(ωn+βωm+m)")
	n := (1 << 12) * scale
	g := graph.GNM(n, 16*n, 91, true)
	omega := 64
	fmt.Printf("%10s | %10s %12s | %10s\n", "β", "writes", "work", "n+βm")
	for _, beta := range []float64{1, 0.25, 0.0625, 1.0 / 64} {
		s := core.New(g, core.Config{Omega: omega, Beta: beta, Seed: 93})
		s.ConnectivityParallel(false)
		c := s.Cost()
		fmt.Printf("%10.4f | %10d %12d | %10.0f\n",
			beta, c.Writes, c.Work(), float64(n)+beta*float64(g.M()))
	}
}

// alg1depth: Lemma 3.7: parallel construction depth is polylog-in-n times
// poly(ω), far below the work.
func alg1depth(scale int) {
	header("Alg1-parallel", "parallel decomposition: depth ≪ work (Lemma 3.7)")
	fmt.Printf("%8s | %12s %12s | %10s\n", "n", "work", "depth", "work/depth")
	for _, n := range []int{1 << 11 * scale, 1 << 12 * scale, 1 << 13 * scale} {
		g := graph.RandomRegular(n, 3, 95)
		s := core.New(g, core.Config{Omega: 64, Seed: 97})
		s.NewDecomposition(true)
		fmt.Printf("%8d | %12d %12d | %10.1f\n",
			n, s.Cost().Work(), s.Depth(), float64(s.Cost().Work())/float64(s.Depth()))
	}
}

// sec6: §6: degree-bounding transform, then the oracles on the transform.
func sec6(scale int) {
	header("Sec6-unbounded", "degree bounding: star and power-law inputs")
	fmt.Printf("%10s %8s %8s | %8s %8s | %10s\n",
		"graph", "n", "maxdeg", "n'", "maxdeg'", "oracle wr")
	n := (1 << 12) * scale
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(n)},
		{"powerlaw", graph.PowerLaw(n, 4, 99)},
	} {
		b := graph.BoundDegree(tc.g, 3)
		s := core.New(b.G, core.Config{Omega: 256, Seed: 101})
		o := s.NewConnectivityOracle()
		// Sanity: all original vertices in one component for these inputs.
		ok := o.Connected(b.Rep(0), b.Rep(tc.g.N()-1))
		if !ok {
			fmt.Println("ERROR: transform broke connectivity")
		}
		fmt.Printf("%10s %8d %8d | %8d %8d | %10d\n",
			tc.name, tc.g.N(), tc.g.MaxDegree(), b.G.N(), b.G.MaxDegree(),
			s.Cost().Writes)
	}
	_ = asym.DefaultOmega
}

// scaling: the scheduling theorem of [9] — projected O(W/P + ωD) times for
// the parallel algorithms, from their measured work and depth.
func scaling(scale int) {
	header("Scaling", "projected time W/P + D (work-stealing theorem of [9])")
	n := (1 << 12) * scale
	g := graph.GNM(n, 8*n, 121, true)
	s := core.New(g, core.Config{Omega: 64, Seed: 123})
	s.ConnectivityParallel(false)
	w, d := s.Cost().Work(), s.Depth()
	fmt.Printf("parallel connectivity: n=%d m=%d work=%d depth=%d\n", g.N(), g.M(), w, d)
	fmt.Printf("%8s | %14s %10s\n", "P", "proj. time", "speedup")
	for _, p := range []int{1, 4, 16, 64, 256, 1024} {
		fmt.Printf("%8d | %14d %9.1fx\n",
			p, asym.ProjectedTime(w, d, p), asym.ProjectedSpeedup(w, d, p))
	}
}
