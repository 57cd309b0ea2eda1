package main

import (
	"reflect"
	"testing"

	"repro/internal/graph"
)

// small shrinks a workload so the tests stay fast.
func small(t *testing.T, name string) spec {
	t.Helper()
	s, err := specByName(name)
	if err != nil {
		t.Fatal(err)
	}
	s.n, s.batches, s.zipfPairs = 512, 8, min(s.zipfPairs, 1024)
	return s
}

func TestInputsReproduceFromSeed(t *testing.T) {
	for _, name := range []string{"http-conn", "engine-bicc-skew", "churn-bicc"} {
		s := small(t, name)
		g1, g2 := makeGraph(s), makeGraph(s)
		if !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
			t.Fatalf("%s: graph differs between two generations", name)
		}
		q1, q2 := makeQueries(s, g1, 11), makeQueries(s, g2, 11)
		if !reflect.DeepEqual(q1, q2) {
			t.Fatalf("%s: query stream differs between two generations at one seed", name)
		}
		if reflect.DeepEqual(q1, makeQueries(s, g1, 12)) {
			t.Fatalf("%s: seeds 11 and 12 give the same query stream", name)
		}
	}
}

func TestQueryMixAndBridgeEdges(t *testing.T) {
	s := small(t, "engine-bicc-skew")
	g := makeGraph(s)
	var conn, total int
	for _, qs := range makeQueries(s, g, 3) {
		for _, q := range qs {
			total++
			switch q.Kind {
			case connKinds[0], connKinds[1]:
				conn++
			case biccKinds[0]:
				if g.EdgeMultiplicity(q.U, q.V) == 0 {
					t.Fatalf("bridge query (%d,%d) is not an edge", q.U, q.V)
				}
			}
		}
	}
	if share := float64(conn) / float64(total); share < 0.15 || share > 0.25 {
		t.Fatalf("conn share %.3f, want about 0.2", share)
	}
}

func TestUpdateScriptReproducesAndAlternates(t *testing.T) {
	a, b := newScript(1000, 16, 5), newScript(1000, 16, 5)
	// Generating out of order must not change the script.
	b.pairEdges(3)
	for w := 0; w < 8; w++ {
		ua, ub := a.update(w), b.update(w)
		if !reflect.DeepEqual(ua, ub) {
			t.Fatalf("window %d: update differs between two scripts at one seed", w)
		}
		if w%2 == 0 && (len(ua.Add) != 16 || len(ua.Remove) != 0) {
			t.Fatalf("window %d: even windows add 16 edges, got %+v", w, ua)
		}
		if w%2 == 1 && !reflect.DeepEqual(ua.Remove, a.update(w-1).Add) {
			t.Fatalf("window %d: odd windows remove what the window before added", w)
		}
		for _, e := range append(ua.Add, ua.Remove...) {
			if e[0] == e[1] {
				t.Fatalf("window %d: self-loop %v", w, e)
			}
		}
	}
	if reflect.DeepEqual(a.update(0), newScript(1000, 16, 6).update(0)) {
		t.Fatal("seeds 5 and 6 give the same update script")
	}
}

func TestGraphAtFollowsTheScript(t *testing.T) {
	base := graph.RandomRegular(64, 3, 1)
	sc := newScript(64, 4, 9)
	edges := base.Edges()
	if got := sc.graphAt(64, edges, 1); got.M() != base.M() {
		t.Fatalf("odd window graph has %d edges, want the base %d", got.M(), base.M())
	}
	g := sc.graphAt(64, edges, 2)
	if g.M() != base.M()+4 {
		t.Fatalf("even window graph has %d edges, want %d", g.M(), base.M()+4)
	}
	for _, e := range sc.pairEdges(1) {
		if g.EdgeMultiplicity(e[0], e[1]) != base.EdgeMultiplicity(e[0], e[1])+1 {
			t.Fatalf("window 2 graph lacks added edge %v", e)
		}
	}
}
