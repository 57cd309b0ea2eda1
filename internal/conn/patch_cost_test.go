package conn

import (
	"errors"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
)

// TestPatchCostsPinned pins the asymmetric reads and writes and the
// symmetric high-water of every call in a fixed ApplyInsertions /
// ApplyDeletions chain on a uniform 3-regular graph (ω = 64, k = 8, seed
// 7). The chain inserts chords and a parallel copy of a forest edge, then
// removes that copy (the tree edge stands on the survivor), a non-forest
// edge and two forest edges whose cuts relink through replacement edges,
// then inserts again, and finally removes every edge at one vertex, which
// splits a component and must return ErrNeedsRebuild. It is the guard that
// the forest's storage can change without moving what the patches charge:
// membership probes, smaller-side walks and replacement searches all read
// the forest's adjacency in its stored order.
func TestPatchCostsPinned(t *testing.T) {
	type cost struct{ reads, writes, high int64 }
	g := graph.RandomRegular(2048, 3, 42)
	n := g.N()
	o := buildDyn(t, g, 8, 7)

	fe := o.ForestEdges()
	inForest := map[[2]int32]bool{}
	for _, e := range fe {
		inForest[e] = true
	}
	var chord [2]int32 // the first graph edge the forest does not use
	for _, e := range g.Edges() {
		if e = graph.NormEdge(e); e[0] != e[1] && !inForest[e] {
			chord = e
			break
		}
	}
	edges := append([][2]int32{}, g.Edges()...)

	cur := o
	step := func(name string, want cost, apply func(m *asym.Meter, sym *asym.SymTracker) (*Oracle, error)) error {
		t.Helper()
		m := asym.NewMeter(64)
		sym := asym.NewSymTracker(0)
		nx, err := apply(m, sym)
		if got := (cost{m.Reads(), m.Writes(), sym.HighWater()}); got != want {
			t.Errorf("%s charged r=%d w=%d high=%d, want r=%d w=%d high=%d", name,
				got.reads, got.writes, got.high, want.reads, want.writes, want.high)
		}
		if err == nil {
			cur = nx
		}
		return err
	}
	insert := func(name string, want cost, batch [][2]int32) {
		t.Helper()
		if err := step(name, want, func(m *asym.Meter, sym *asym.SymTracker) (*Oracle, error) {
			return cur.ApplyInsertions(m, sym, batch)
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		edges = append(edges, batch...)
	}
	remove := func(name string, want cost, batch [][2]int32) error {
		t.Helper()
		edges = removeCopies(t, edges, batch)
		next := graph.FromEdges(n, edges)
		return step(name, want, func(m *asym.Meter, sym *asym.SymTracker) (*Oracle, error) {
			return cur.ApplyDeletions(m, sym, batch, next)
		})
	}

	insert("insert-1", cost{126, 0, 18}, [][2]int32{{0, 1000}, {17, 2047}, fe[10], {512, 1536}})
	if err := remove("delete-1", cost{79, 8, 20}, [][2]int32{fe[10], chord, fe[100], fe[1500]}); err != nil {
		t.Fatalf("delete-1: %v", err)
	}
	insert("insert-2", cost{163, 0, 40}, [][2]int32{fe[100], {3, 4}, {2000, 5}})

	var star [][2]int32 // every edge at vertex 700
	for _, w := range g.Adj(700) {
		star = append(star, [2]int32{700, w})
	}
	if err := remove("delete-star", cost{229, 6, 106}, star); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("delete-star: err = %v, want ErrNeedsRebuild", err)
	}
	checkForestSpans(t, cur, n, append(append([][2]int32{}, edges...), star...))
}
