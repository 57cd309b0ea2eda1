package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Input generation. Each workload serves one fixed graph (and, for the
// skewed workload, one fixed hot-pair table); the workload seed draws the
// traffic against it — query kinds and endpoints, update edges — so two runs
// at one seed replay the same inputs. The graph is fixed because on the
// bicc workloads its shape, not the program, set the numbers: across graph
// seeds work per query moved by 15% on churn-bicc (1% with the graph fixed
// and the traffic seeded) and the powerlaw graph's hub sizes vary even more.
// Under Zipf(1.2) the ten hottest pairs take half of all draws, so a seeded
// hot-pair table would likewise measure which pairs a seed made hot.

var (
	connKinds = []serve.Kind{serve.KindConnected, serve.KindComponent}
	biccKinds = []serve.Kind{serve.KindBridge, serve.KindArticulation, serve.KindBiconnected, serve.KindTwoEdgeConnected}
	allKinds  = append(append([]serve.Kind(nil), connKinds...), biccKinds...)
)

// Stream tags decorrelate the sub-generators drawn from one workload seed.
const (
	tagQueries = 0x71756572
	tagEdges   = 0x65646765
)

// The fixed inputs: oracled's default generated-graph seed for the uniform
// graphs, cmd/wecbench's for the powerlaw one, and the hot-pair table's.
const (
	uniformSeed  = 42
	powerLawSeed = 99
	hotPairSeed  = 0x70616972
)

func subSeed(seed uint64, tag uint64) uint64 {
	return graph.Hash64(seed, tag) | 1
}

// spec is one workload's shape.
type spec struct {
	name string
	// family is "uniform" (connected random 3-regular graph) or "powerlaw"
	// (the §6 degree-bounded preferential-attachment graph).
	family string
	// n is the vertex count (uniform) or the nominal pre-bounding count
	// (powerlaw).
	n int
	// connFrac is the share of conn-kind queries; the rest are bicc kinds.
	connFrac float64
	// zipfPairs > 0 draws endpoints from a Zipf(1.2)-weighted table of that
	// many pairs instead of uniformly.
	zipfPairs int
	// tailPct is the percentile latency_tail_ms reports. It is p90 only
	// on churn-bicc, where one or two of every 16 batches wait for a lazy
	// bicc build and p90 lands on that wait. Elsewhere no batch is slow
	// by design, so the batches above p75 are the ones the host took the
	// CPU from: on the 2-vCPU VM the benchmark was sized on, with a
	// competing process taking 5 ms of every 25 on each vCPU, p90 rose by
	// 25-140% over an undisturbed run of the same code and p75 by 2-35%.
	tailPct float64
	batch   int // queries per request / Do call
	batches int // distinct pregenerated batches, cycled
	callers int // closed-loop callers
	http    bool
	churn   bool
	// windowBatches is the number of query batches per churn window.
	windowBatches int
	// edgesPerUpdate is the size of each scripted update.
	edgesPerUpdate int
	// sliceWindows is the number of churn windows per measurement slice
	// (see perSlice); the update figures are taken over the same whole
	// slices. On churn-conn it is one conn re-base cycle: every update is
	// patched into the conn oracle, and the update after 64 patches
	// (serve.DefaultRebaseEvery) re-bases it, which takes about as long
	// as the 64 windows before it. Slices of one cycle each hold exactly
	// one re-base, where a run cut by time would hold one or two.
	sliceWindows int
	// minWindows is the fewest windows a measured stretch plays even when
	// its time is up: a whole number of slices, and at least 40 updates,
	// which puts the update tail at p75 or higher (see tailPercentile).
	minWindows int
}

var specs = []spec{
	{name: "http-conn", family: "uniform", n: 65536, connFrac: 1, tailPct: 75, batch: 256, batches: 512, callers: 2, http: true},
	{name: "engine-bicc-skew", family: "powerlaw", n: 16384, connFrac: 0.2, zipfPairs: 65536, tailPct: 75, batch: 256, batches: 512, callers: 1},
	{name: "churn-bicc", family: "uniform", n: 8192, connFrac: 0.5, tailPct: 90, batch: 256, batches: 256, callers: 2, churn: true, windowBatches: 8, edgesPerUpdate: 16, sliceWindows: 40, minWindows: 40},
	{name: "churn-conn", family: "uniform", n: 65536, connFrac: 1, tailPct: 75, batch: 256, batches: 256, callers: 2, churn: true, windowBatches: 8, edgesPerUpdate: 16, sliceWindows: 65, minWindows: 130},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// makeGraph generates the workload's graph.
func makeGraph(s spec) *graph.Graph {
	if s.family == "powerlaw" {
		return graph.BoundDegree(graph.PowerLaw(s.n, 4, powerLawSeed), 3).G
	}
	return graph.RandomRegular(s.n, 3, uniformSeed)
}

// zipfExponent is the rank weight exponent: the pair at rank r is drawn
// with weight 1/r^1.2.
const zipfExponent = 1.2

type zipfTable struct {
	pairs  [][2]int32
	prefix []float64
}

func newZipfTable(rng *graph.RNG, size, n int) *zipfTable {
	z := &zipfTable{pairs: make([][2]int32, size), prefix: make([]float64, size)}
	sum := 0.0
	for i := range z.pairs {
		z.pairs[i] = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
		sum += 1 / math.Pow(float64(i+1), zipfExponent)
		z.prefix[i] = sum
	}
	return z
}

func (z *zipfTable) pick(rng *graph.RNG) [2]int32 {
	x := rng.Float64() * z.prefix[len(z.prefix)-1]
	i := min(sort.SearchFloat64s(z.prefix, x), len(z.pairs)-1)
	return z.pairs[i]
}

// makeQueries pregenerates the workload's cyclic query stream. Bridge
// queries ask about an edge that exists (u and one of its neighbors, picked
// by the drawn v), so they test the interesting half of the predicate;
// churn never removes base edges, so those edges exist in every window.
func makeQueries(s spec, g *graph.Graph, seed uint64) [][]serve.Query {
	rng := graph.NewRNG(subSeed(seed, tagQueries))
	var zipf *zipfTable
	if s.zipfPairs > 0 {
		zipf = newZipfTable(graph.NewRNG(hotPairSeed), s.zipfPairs, g.N())
	}
	n := g.N()
	out := make([][]serve.Query, s.batches)
	for b := range out {
		qs := make([]serve.Query, s.batch)
		for i := range qs {
			var kind serve.Kind
			if rng.Float64() < s.connFrac {
				kind = connKinds[rng.Intn(len(connKinds))]
			} else {
				kind = biccKinds[rng.Intn(len(biccKinds))]
			}
			var p [2]int32
			if zipf != nil {
				p = zipf.pick(rng)
			} else {
				p = [2]int32{int32(rng.Intn(n)), int32(rng.Intn(n))}
			}
			if kind == serve.KindBridge {
				if adj := g.Adj(int(p[0])); len(adj) > 0 {
					p[1] = adj[int(p[1])%len(adj)]
				}
			}
			qs[i] = serve.Query{Kind: kind, U: p[0], V: p[1]}
		}
		out[b] = qs
	}
	return out
}

// script is a churn workload's deterministic update schedule: window w
// adds the edge set of pair w/2 when w is even and removes the same edges
// when w is odd, so the graph returns to its base every second window.
type script struct {
	n, edges int
	seed     uint64
	pairs    [][][2]int32
}

func newScript(n, edgesPerUpdate int, seed uint64) *script {
	return &script{n: n, edges: edgesPerUpdate, seed: subSeed(seed, tagEdges)}
}

// pairEdges returns the edge set of window pair p (generated on demand,
// each pair from its own seed, so the script is independent of how far a
// run gets).
func (sc *script) pairEdges(p int) [][2]int32 {
	for len(sc.pairs) <= p {
		rng := graph.NewRNG(graph.Hash64(sc.seed, uint64(len(sc.pairs))))
		es := make([][2]int32, sc.edges)
		for i := range es {
			u := int32(rng.Intn(sc.n))
			v := int32(rng.Intn(sc.n - 1))
			if v >= u {
				v++
			}
			es[i] = [2]int32{u, v}
		}
		sc.pairs = append(sc.pairs, es)
	}
	return sc.pairs[p]
}

// update returns window w's update.
func (sc *script) update(w int) serve.Update {
	es := sc.pairEdges(w / 2)
	if w%2 == 0 {
		return serve.Update{Add: es}
	}
	return serve.Update{Remove: es}
}

// graphAt returns the graph the program serves during window w (after its
// update published): the base edges plus pair w/2's edges on even
// windows, the base edges alone on odd ones.
func (sc *script) graphAt(n int, baseEdges [][2]int32, w int) *graph.Graph {
	es := baseEdges
	if w%2 == 0 {
		es = append(append([][2]int32(nil), baseEdges...), sc.pairEdges(w/2)...)
	}
	return graph.FromEdges(n, es)
}

// windowBatch returns the stream index of window w's j-th batch.
func windowBatch(s spec, w, j int) int {
	return (w*s.windowBatches + j) % s.batches
}
