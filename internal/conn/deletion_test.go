package conn

import (
	"errors"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// buildDyn builds an oracle with its explicit spanning forest seeded — the
// shape the serving layer's conn build produces.
func buildDyn(t *testing.T, g *graph.Graph, k int, seed uint64) *Oracle {
	t.Helper()
	m, c := env(16)
	o := BuildOracle(c, graph.View{G: g, M: m}, k, seed)
	o.EnsureForest(m)
	return o
}

// removeCopies returns edges minus one copy per removal (multiset).
func removeCopies(t *testing.T, edges, removals [][2]int32) [][2]int32 {
	t.Helper()
	out := append([][2]int32{}, edges...)
	for _, r := range removals {
		key := graph.NormEdge(r)
		found := false
		for i, e := range out {
			if graph.NormEdge(e) == key {
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("removal %v not present", r)
		}
	}
	return out
}

// checkForestSpans verifies the oracle's forest is a spanning forest of
// edges: every forest edge present, acyclic, and exactly n - components
// edges.
func checkForestSpans(t *testing.T, o *Oracle, n int, edges [][2]int32) {
	t.Helper()
	mult := map[[2]int32]int{}
	for _, e := range edges {
		mult[graph.NormEdge(e)]++
	}
	ref := unionfind.NewRef(n)
	for _, e := range o.ForestEdges() {
		if mult[e] == 0 {
			t.Fatalf("forest edge %v not in graph", e)
		}
		if !ref.Union(e[0], e[1]) {
			t.Fatalf("forest edge %v closes a cycle", e)
		}
	}
	comps := unionfind.NewRef(n)
	want := 0
	for _, e := range edges {
		if e[0] != e[1] && comps.Union(e[0], e[1]) {
			want++
		}
	}
	if got := len(o.ForestEdges()); got != want {
		t.Fatalf("forest has %d edges, want %d", got, want)
	}
}

// TestApplyDeletionsNonForest: removing a cycle chord the forest does not
// use costs O(1) and changes no labels, no components, no forest.
func TestApplyDeletionsNonForest(t *testing.T) {
	g := graph.Cycle(12) // every vertex on one cycle: exactly one non-forest edge
	o := buildDyn(t, g, 3, 1)
	var nonForest [2]int32
	found := false
	forest := map[[2]int32]bool{}
	for _, e := range o.ForestEdges() {
		forest[e] = true
	}
	for _, e := range g.Edges() {
		if !forest[graph.NormEdge(e)] {
			nonForest, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("cycle's forest uses every edge?")
	}

	next := graph.FromEdges(g.N(), removeCopies(t, g.Edges(), [][2]int32{nonForest}))
	m := asym.NewMeter(16)
	nx, err := o.ApplyDeletions(m, asym.NewSymTracker(0), [][2]int32{nonForest}, next)
	if err != nil {
		t.Fatal(err)
	}
	if nx.NumComponents != o.NumComponents || nx.ChainDepth() != 1 {
		t.Fatalf("components %d->%d depth %d", o.NumComponents, nx.NumComponents, nx.ChainDepth())
	}
	if !samePartition(oracleLabels(nx, g.N(), 16), oracleLabels(o, g.N(), 16)) {
		t.Fatal("labels changed by a non-forest deletion")
	}
	checkForestSpans(t, nx, g.N(), next.Edges())
	// Cheap: a couple of probes, no side search.
	if m.Writes() != 0 {
		t.Fatalf("non-forest deletion charged %d writes", m.Writes())
	}
	// The receiver is untouched (copy-on-write).
	if o.ChainDepth() != 0 || len(o.ForestEdges()) != 11 {
		t.Fatal("receiver mutated")
	}
}

// TestApplyDeletionsReplacement: cutting a forest edge of a cycle relinks
// through the surviving path — same components, valid forest, no rebuild.
func TestApplyDeletionsReplacement(t *testing.T) {
	g := graph.Cycle(16)
	o := buildDyn(t, g, 3, 5)
	cut := o.ForestEdges()[4] // definitely a forest edge

	next := graph.FromEdges(g.N(), removeCopies(t, g.Edges(), [][2]int32{cut}))
	m := asym.NewMeter(16)
	nx, err := o.ApplyDeletions(m, asym.NewSymTracker(0), [][2]int32{cut}, next)
	if err != nil {
		t.Fatal(err)
	}
	if nx.NumComponents != o.NumComponents {
		t.Fatalf("components %d -> %d", o.NumComponents, nx.NumComponents)
	}
	ref := refLabels(next)
	if !samePartition(oracleLabels(nx, g.N(), 16), ref) {
		t.Fatal("labels diverge after replacement relink")
	}
	checkForestSpans(t, nx, g.N(), next.Edges())
}

// TestApplyDeletionsBridgeNeedsRebuild: removing a bridge has no
// replacement — typed ErrNeedsRebuild, receiver untouched.
func TestApplyDeletionsBridgeNeedsRebuild(t *testing.T) {
	g := graph.Lollipop(6, 5) // path edges are bridges
	o := buildDyn(t, g, 3, 2)
	n := int32(g.N())
	bridge := [2]int32{n - 2, n - 1}

	next := graph.FromEdges(g.N(), removeCopies(t, g.Edges(), [][2]int32{bridge}))
	_, err := o.ApplyDeletions(asym.NewMeter(16), asym.NewSymTracker(0), [][2]int32{bridge}, next)
	if !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("err = %v, want ErrNeedsRebuild", err)
	}
	// The refused receiver still works and still carries its forest.
	checkForestSpans(t, o, g.N(), g.Edges())
	if !samePartition(oracleLabels(o, g.N(), 16), refLabels(g)) {
		t.Fatal("receiver damaged by refused batch")
	}
}

// TestApplyDeletionsParallelCopy: deleting one copy of a doubled edge never
// touches the forest, even when the forest uses that pair.
func TestApplyDeletionsParallelCopy(t *testing.T) {
	edges := [][2]int32{{0, 1}, {0, 1}, {1, 2}} // doubled bridge + tail
	g := graph.FromEdges(3, edges)
	o := buildDyn(t, g, 2, 3)

	next := graph.FromEdges(3, removeCopies(t, edges, [][2]int32{{0, 1}}))
	nx, err := o.ApplyDeletions(asym.NewMeter(16), asym.NewSymTracker(0), [][2]int32{{0, 1}}, next)
	if err != nil {
		t.Fatal(err)
	}
	if nx.NumComponents != o.NumComponents {
		t.Fatal("parallel-copy deletion changed components")
	}
	checkForestSpans(t, nx, 3, next.Edges())

	// Removing the second copy now cuts for real — and it is a bridge.
	next2 := graph.FromEdges(3, removeCopies(t, next.Edges(), [][2]int32{{0, 1}}))
	if _, err := nx.ApplyDeletions(asym.NewMeter(16), asym.NewSymTracker(0), [][2]int32{{0, 1}}, next2); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("second copy removal: %v, want ErrNeedsRebuild", err)
	}
}

// TestApplyDeletionsSelfLoopAndValidation: self-loops are absorbed
// trivially; out-of-range edges and a missing post-batch graph are
// rejected; an oracle without a forest refuses with ErrNeedsRebuild.
func TestApplyDeletionsSelfLoopAndValidation(t *testing.T) {
	edges := [][2]int32{{0, 1}, {1, 1}, {1, 2}}
	g := graph.FromEdges(3, edges)
	o := buildDyn(t, g, 2, 1)

	next := graph.FromEdges(3, removeCopies(t, edges, [][2]int32{{1, 1}}))
	nx, err := o.ApplyDeletions(asym.NewMeter(16), asym.NewSymTracker(0), [][2]int32{{1, 1}}, next)
	if err != nil || nx.NumComponents != o.NumComponents {
		t.Fatalf("self-loop removal: %v", err)
	}

	if _, err := o.ApplyDeletions(asym.NewMeter(16), nil, [][2]int32{{0, 9}}, next); err == nil {
		t.Fatal("out-of-range removal accepted")
	}
	if _, err := o.ApplyDeletions(asym.NewMeter(16), nil, [][2]int32{{0, 1}}, nil); err == nil {
		t.Fatal("nil post-batch graph accepted")
	}

	m, c := env(16)
	bare := BuildOracle(c, graph.View{G: g, M: m}, 2, 1) // no EnsureForest
	if _, err := bare.ApplyDeletions(asym.NewMeter(16), nil, [][2]int32{{0, 1}}, next); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("forest-less oracle: %v, want ErrNeedsRebuild", err)
	}
}

// TestInsertionsMaintainForest: merging insertions become forest edges, so
// a later deletion of an original bridge can relink through them.
func TestInsertionsMaintainForest(t *testing.T) {
	g := graph.Disconnected(graph.Path(4), 2) // two paths: 0-1-2-3, 4-5-6-7
	o := buildDyn(t, g, 3, 7)

	adds := [][2]int32{{3, 4}, {0, 7}} // first merges, second closes a cycle
	m := asym.NewMeter(16)
	nx, err := o.ApplyInsertions(m, asym.NewSymTracker(0), adds)
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][2]int32{}, g.Edges()...), adds...)
	checkForestSpans(t, nx, g.N(), all)
	if nx.ChainDepth() != 1 {
		t.Fatalf("depth %d", nx.ChainDepth())
	}
	// The receiver is untouched (copy-on-write): still two components.
	if !samePartition(oracleLabels(o, g.N(), 16), refLabels(g)) || o.ChainDepth() != 0 {
		t.Fatal("receiver mutated by a merging ApplyInsertions")
	}

	// Deleting the merged bridge (3,4) must relink through (0,7).
	next := graph.FromEdges(g.N(), removeCopies(t, all, [][2]int32{{3, 4}}))
	nx2, err := nx.ApplyDeletions(asym.NewMeter(16), asym.NewSymTracker(0), [][2]int32{{3, 4}}, next)
	if err != nil {
		t.Fatal(err)
	}
	if nx2.NumComponents != nx.NumComponents || nx2.ChainDepth() != 2 {
		t.Fatalf("components %d->%d depth %d", nx.NumComponents, nx2.NumComponents, nx2.ChainDepth())
	}
	if !samePartition(oracleLabels(nx2, g.N(), 16), refLabels(next)) {
		t.Fatal("labels diverge after relink through inserted edge")
	}
	checkForestSpans(t, nx2, g.N(), next.Edges())
}

// TestRebaseCollapsesChain: re-basing (a fresh forest-seeded build over the
// current graph, as the serving ladder's rebased rung does) resets depth
// and remap while answering identically.
func TestRebaseCollapsesChain(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(8), 5)
	o := buildDyn(t, g, 3, 9)
	n := g.N()

	edges := g.Edges()
	cur := o
	rng := graph.NewRNG(77)
	for b := 0; b < 6; b++ {
		batch := [][2]int32{{int32(rng.Intn(n)), int32(rng.Intn(n))}}
		nx, err := cur.ApplyInsertions(asym.NewMeter(16), asym.NewSymTracker(0), batch)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, batch...)
		cur = nx
	}
	if cur.ChainDepth() != 6 {
		t.Fatalf("depth %d, want 6", cur.ChainDepth())
	}

	curG := graph.FromEdges(n, edges)
	rb := buildDyn(t, curG, 3, 9)
	if rb.ChainDepth() != 0 || rb.Remap() != nil {
		t.Fatalf("rebase left depth=%d remap=%v", rb.ChainDepth(), rb.Remap())
	}
	if !samePartition(oracleLabels(rb, n, 16), oracleLabels(cur, n, 16)) {
		t.Fatal("rebase changed the partition")
	}
	if rb.NumComponents != cur.NumComponents {
		t.Fatalf("NumComponents %d -> %d", cur.NumComponents, rb.NumComponents)
	}
	checkForestSpans(t, rb, n, edges)
}

// TestAdoptForest: a persisted forest round-trips through adoption, and
// stale forests (missing edge, cycle, wrong size) are rejected.
func TestAdoptForest(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(6), 3)
	o := buildDyn(t, g, 3, 4)
	persisted := o.ForestEdges()

	m, c := env(16)
	fresh := BuildOracle(c, graph.View{G: g, M: m}, 3, 4)
	adopted, err := fresh.AdoptForest(persisted, 7)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.ChainDepth() != 7 {
		t.Fatalf("depth %d, want 7", adopted.ChainDepth())
	}
	checkForestSpans(t, adopted, g.N(), g.Edges())

	if _, err := fresh.AdoptForest([][2]int32{{0, 3}}, 0); err == nil {
		t.Fatal("forest with a non-edge accepted")
	}
	if _, err := fresh.AdoptForest(persisted[:len(persisted)-1], 0); err == nil {
		t.Fatal("non-spanning forest accepted")
	}
	cyclic := append(append([][2]int32{}, persisted...), persisted[0])
	if _, err := fresh.AdoptForest(cyclic, 0); err == nil {
		t.Fatal("cyclic forest accepted")
	}
	if _, err := fresh.AdoptForest(persisted, -1); err == nil {
		t.Fatal("negative chain depth accepted")
	}
}
