package decomp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// decompFields is everything a decomposition stores, read out through
// throwaway meters: the center and primary bits, the sorted center list,
// the rank directory (as the index of every vertex) and the three counts.
type decompFields struct {
	Center, Primary []bool
	Centers         []int32
	Rank            []int
	Counts          [3]int
}

func fieldsOf(d *Decomposition) decompFields {
	m := asym.NewMeter(1)
	n := d.g.N()
	f := decompFields{
		Center:  make([]bool, n),
		Primary: make([]bool, n),
		Centers: d.centers.Raw(),
		Rank:    make([]int, n),
		Counts:  [3]int{d.PrimaryCount, d.SecondaryCount, d.ExtraPrimaries},
	}
	for v := 0; v < n; v++ {
		f.Center[v] = d.IsCenter(m, int32(v))
		f.Primary[v] = d.IsPrimary(m, int32(v))
		f.Rank[v] = d.CenterIndex(m, int32(v))
	}
	return f
}

// repairAndBuild repairs old onto g and builds g from scratch, and fails
// the test unless the two decompositions store the same fields. It returns
// the repaired one and the primaries it redid (-1: it fell back to Build).
func repairAndBuild(t testing.TB, old *Decomposition, g *graph.Graph) (*Decomposition, int) {
	t.Helper()
	m := asym.NewMeter(64)
	got, touched := repair(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: g, M: m}, old, g.N())
	want, _, _ := build(g, old.k, old.seed, old.opt)
	if got.g != g {
		t.Fatal("the repaired decomposition is not over the new graph")
	}
	if gf, wf := fieldsOf(got), fieldsOf(want); !reflect.DeepEqual(gf, wf) {
		t.Fatalf("Repair (redid %d primaries) stored other fields than Build: counts %v, want %v", touched, gf.Counts, wf.Counts)
	}
	return got, touched
}

// randomBatch applies size random edits to g: each adds an edge between
// two random vertices or, with probability removeP, removes a random edge.
func randomBatch(t testing.TB, g *graph.Graph, rng *graph.RNG, size int, removeP float64) *graph.Graph {
	t.Helper()
	ov := graph.NewOverlay(g)
	edges := g.Edges()
	var adds, removes [][2]int32
	gone := map[int]bool{}
	for i := 0; i < size; i++ {
		if rng.Float64() < removeP && len(gone) < len(edges) {
			j := rng.Intn(len(edges))
			for gone[j] {
				j = (j + 1) % len(edges)
			}
			gone[j] = true
			removes = append(removes, edges[j])
			continue
		}
		u, v := int32(rng.Intn(g.N())), int32(rng.Intn(g.N()))
		if u != v {
			adds = append(adds, [2]int32{u, v})
		}
	}
	if err := ov.AddEdges(adds); err != nil {
		t.Fatal(err)
	}
	if err := ov.RemoveEdges(removes); err != nil {
		t.Fatal(err)
	}
	return ov.BuildPlain()
}

// TestRepairMatchesBuild runs random sequences of 1–32-edge add/remove
// batches and, after every batch, repairs the previous batch's repaired
// decomposition and checks it against Build on the new graph, field for
// field. The disconnected case starts with a deletion that splits off a
// primary-free path of at least k vertices, which the extension must mark,
// so Repair has to fall back to Build; later batches there repair or fall
// back depending on the components they leave.
func TestRepairMatchesBuild(t *testing.T) {
	const k, seed = 8, 7
	cases := []struct {
		name    string
		g       *graph.Graph
		removeP float64
	}{
		{"random-regular", graph.RandomRegular(2048, 3, 42), 0.5},
		{"grid", graph.Grid2D(30, 30), 0.5},
		{"disconnected", graph.Disconnected(graph.Cycle(40), 8), 0.7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, _, _ := build(tc.g, k, seed, Options{})
			if d.ExtraPrimaries != 0 {
				t.Fatalf("the start graph needs %d extension primaries; Repair would only ever rebuild", d.ExtraPrimaries)
			}
			if same, _ := repairAndBuild(t, d, tc.g); same != d {
				t.Fatal("Repair onto the decomposition's own graph must return it")
			}
			g := tc.g
			repaired, fellBack := 0, 0
			if tc.name == "disconnected" {
				g = splitPrimaryFreePath(t, d)
				var touched int
				if d, touched = repairAndBuild(t, d, g); touched >= 0 || d.ExtraPrimaries == 0 {
					t.Fatalf("splitting off a primary-free path: redid %d primaries, %d extension primaries; want a fallback that marks one",
						touched, d.ExtraPrimaries)
				}
			}
			rng := graph.NewRNG(uint64(len(tc.name)))
			for batch := 0; batch < 40; batch++ {
				g = randomBatch(t, g, rng, 1+rng.Intn(32), tc.removeP)
				var touched int
				d, touched = repairAndBuild(t, d, g)
				if touched < 0 {
					fellBack++
				} else {
					repaired++
				}
			}
			if repaired == 0 {
				t.Errorf("no batch was repaired (%d fell back to Build)", fellBack)
			}
			t.Logf("%d batches repaired, %d fell back to Build", repaired, fellBack)
		})
	}
}

// TestRepairSwapAtOneEndpoint pins a batch that moves one edge end: vertex
// 26 loses edge (26,27) and gains (26,76). Vertices whose old path ran
// through the removed edge are found only by listing the old cluster of an
// endpoint's old ρ0, so round one needs both sides' ρ0; with the new side
// alone this repair misses a secondary center.
func TestRepairSwapAtOneEndpoint(t *testing.T) {
	g := graph.RandomRegular(210, 3, 17100)
	ov := graph.NewOverlay(g)
	if err := ov.AddEdges([][2]int32{{26, 76}}); err != nil {
		t.Fatal(err)
	}
	if err := ov.RemoveEdges([][2]int32{{26, 27}}); err != nil {
		t.Fatal(err)
	}
	d, _, _ := build(g, 4, 17100, Options{})
	if _, touched := repairAndBuild(t, d, ov.BuildPlain()); touched <= 0 {
		t.Fatalf("redid %d primaries, want a repair", touched)
	}
}

// splitPrimaryFreePath returns d's graph without the two edges that bound
// the first run of at least k consecutive non-primary vertices of one of
// its cycles (Disconnected copies of one cycle), so that run becomes a
// primary-free path component of at least k vertices.
func splitPrimaryFreePath(t *testing.T, d *Decomposition) *graph.Graph {
	t.Helper()
	const cycle = 40
	m := asym.NewMeter(1)
	for base := 0; base < d.g.N(); base += cycle {
		at := func(i int) int32 { return int32(base + (i+cycle)%cycle) }
		for start := 0; start < cycle; start++ {
			if !d.IsPrimary(m, at(start-1)) {
				continue
			}
			run := 0
			for run < cycle-1 && !d.IsPrimary(m, at(start+run)) {
				run++
			}
			if run < d.k {
				continue
			}
			ov := graph.NewOverlay(d.g)
			if err := ov.RemoveEdges([][2]int32{{at(start - 1), at(start)}, {at(start + run - 1), at(start + run)}}); err != nil {
				t.Fatal(err)
			}
			return ov.BuildPlain()
		}
	}
	t.Fatalf("no cycle has %d consecutive non-primary vertices", d.k)
	return nil
}

// FuzzRepair decodes a base graph, k and one edge batch from the input and
// checks that repairing the base graph's decomposition onto the batched
// graph stores what Build does. Byte 0 picks the base graph, byte 1 the
// cluster bound; each following pair is one edit: an even first byte adds
// an edge from it to the second byte's vertex, an odd one removes the edge
// the two bytes index.
func FuzzRepair(f *testing.F) {
	bases := []*graph.Graph{
		graph.RandomRegular(256, 3, 42),
		graph.Grid2D(12, 12),
		graph.Disconnected(graph.Cycle(24), 6),
	}
	f.Add([]byte{0, 4, 2, 9, 3, 70})
	f.Add([]byte{1, 2, 5, 5, 7, 7, 9, 9, 100, 3})
	f.Add([]byte{2, 4, 1, 10, 1, 30, 1, 50, 3, 90})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		g := bases[int(in[0])%len(bases)]
		k := 2 + int(in[1])%7
		edges := g.Edges()
		var adds, removes [][2]int32
		gone := map[int]bool{}
		for i := 2; i+1 < len(in) && len(adds)+len(removes) < 32; i += 2 {
			a, b := int(in[i]), int(in[i+1])
			if a%2 == 0 {
				adds = append(adds, [2]int32{int32(a*g.N()/256) % int32(g.N()), int32(b*g.N()/256) % int32(g.N())})
				continue
			}
			if j := (a*256 + b) % len(edges); !gone[j] {
				gone[j] = true
				removes = append(removes, edges[j])
			}
		}
		ov := graph.NewOverlay(g)
		if err := ov.AddEdges(adds); err != nil {
			t.Fatal(err)
		}
		if err := ov.RemoveEdges(removes); err != nil {
			t.Fatal(err)
		}
		old, _, _ := build(g, k, 7, Options{})
		repairAndBuild(t, old, ov.BuildPlain())
	})
}

// TestRepairKeepsOptions repairs decompositions built with non-default
// options: the Lemma 3.7 variant and a small extension search cap must
// come out as Build with the same options makes them.
func TestRepairKeepsOptions(t *testing.T) {
	g := graph.RandomRegular(1024, 3, 42)
	rng := graph.NewRNG(3)
	for _, opt := range []Options{{Parallel: true}, {MaxSearch: 12}} {
		t.Run(fmt.Sprintf("%+v", opt), func(t *testing.T) {
			d, _, _ := build(g, 8, 7, opt)
			h := g
			for batch := 0; batch < 10; batch++ {
				h = randomBatch(t, h, rng, 1+rng.Intn(32), 0.5)
				d, _ = repairAndBuild(t, d, h)
			}
		})
	}
}

// TestRepairFallsBackPastBreakEven checks Repair's size fallback: a batch
// that changes more than n/repairBreakEven vertices is rebuilt, one that
// changes fewer is repaired, and both store what Build does.
func TestRepairFallsBackPastBreakEven(t *testing.T) {
	g := graph.RandomRegular(2048, 3, 42)
	d, _, _ := build(g, 8, 7, Options{})
	limit := g.N() / repairBreakEven
	rng := graph.NewRNG(5)
	for _, tc := range []struct {
		edits   int
		rebuilt bool
	}{{limit / 4, false}, {2 * limit, true}} {
		h := randomBatch(t, g, rng, tc.edits, 0.5)
		changed := len(graph.ChangedVertices(asym.NewMeter(1), g, h))
		if changed > limit != tc.rebuilt {
			t.Fatalf("%d edits changed %d vertices against the limit %d", tc.edits, changed, limit)
		}
		m := asym.NewMeter(64)
		got := Repair(parallel.NewCtx(m, asym.NewSymTracker(0)), graph.View{G: h, M: m}, d)
		want, _, _ := build(h, 8, 7, Options{})
		if !reflect.DeepEqual(fieldsOf(got), fieldsOf(want)) {
			t.Fatalf("%d changed vertices: Repair stored other fields than Build", changed)
		}
		// A repair shares the primary bits with old; a rebuild samples anew.
		if rebuilt := got.isPrimary != d.isPrimary; rebuilt != tc.rebuilt {
			t.Errorf("%d changed vertices (limit %d): rebuilt = %v, want %v", changed, limit, rebuilt, tc.rebuilt)
		}
	}
}
