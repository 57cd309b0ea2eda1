package main

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Two triangles joined by the bridge 2-3, plus the isolated vertex 6.
func twoTriangles() *graph.Graph {
	return graph.FromEdges(7, [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}})
}

func TestReferenceAcceptsRightAnswersOnly(t *testing.T) {
	qs := []serve.Query{
		{Kind: serve.KindConnected, U: 0, V: 5},
		{Kind: serve.KindConnected, U: 0, V: 6},
		{Kind: serve.KindBridge, U: 2, V: 3},
		{Kind: serve.KindBridge, U: 0, V: 1},
		{Kind: serve.KindArticulation, U: 2},
		{Kind: serve.KindBiconnected, U: 0, V: 5},
		{Kind: serve.KindTwoEdgeConnected, U: 0, V: 1},
	}
	right := []int32{1, 0, 1, 0, 1, 0, 1}
	if bad := newReference(twoTriangles(), true).check(qs, right); bad != 0 {
		t.Fatalf("%d right answers rejected", bad)
	}
	for i := range right {
		wrong := append([]int32(nil), right...)
		wrong[i] ^= 1
		if bad := newReference(twoTriangles(), true).check(qs, wrong); bad != 1 {
			t.Fatalf("flipping answer %d (%s): %d rejected, want 1", i, qs[i].Kind, bad)
		}
	}
	errs := append([]int32(nil), right...)
	errs[0] = errAnswer
	if bad := newReference(twoTriangles(), true).check(qs, errs); bad != 1 {
		t.Fatalf("an error answer was accepted")
	}
}

func TestComponentLabelsMustBeAPartition(t *testing.T) {
	comp := func(vs ...int32) []serve.Query {
		qs := make([]serve.Query, len(vs))
		for i, v := range vs {
			qs[i] = serve.Query{Kind: serve.KindComponent, U: v}
		}
		return qs
	}
	qs := comp(0, 5, 6, 3)
	cases := []struct {
		labels []int32
		bad    int
	}{
		{[]int32{7, 7, 9, 7}, 0}, // any names work if they partition alike
		{[]int32{7, 8, 9, 7}, 1}, // 5 split from 0's component
		{[]int32{7, 7, 7, 7}, 1}, // 6 merged into 0's component
	}
	for _, c := range cases {
		if bad := newReference(twoTriangles(), false).check(qs, c.labels); bad != c.bad {
			t.Errorf("labels %v: %d rejected, want %d", c.labels, bad, c.bad)
		}
	}
	// Labels are per epoch: a fresh reference accepts a renaming.
	ref := newReference(twoTriangles(), false)
	ref.check(qs, []int32{7, 7, 9, 7})
	if bad := ref.fresh().check(qs, []int32{1, 1, 2, 1}); bad != 0 {
		t.Errorf("renamed labels rejected after fresh()")
	}
}
