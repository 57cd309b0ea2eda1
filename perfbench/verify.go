package main

import (
	"math"

	"repro/internal/bicc"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/unionfind"
)

// Answers are kept compactly while a run measures — one int32 per query:
// 0/1 for the boolean kinds, the label for component, errAnswer for an
// error — and checked against from-scratch references once it is over.

const errAnswer = math.MinInt32

// encode converts results into answers and returns how many were errors.
func encode(res []serve.Result, out []int32) (errs int) {
	for i, r := range res {
		switch {
		case r.Err != "":
			out[i] = errAnswer
		case r.Bool != nil:
			out[i] = 0
			if *r.Bool {
				out[i] = 1
			}
		case r.Label != nil:
			out[i] = *r.Label
		default:
			out[i] = errAnswer
		}
		if out[i] == errAnswer {
			errs++
		}
	}
	return errs
}

// mismatches counts positions where two answer vectors differ.
func mismatches(a, b []int32) int {
	bad := 0
	for i := range a {
		if a[i] != b[i] {
			bad++
		}
	}
	return bad
}

// reference answers every kind on one graph: a union-find partition for
// the conn kinds and bicc.Ref (Hopcroft–Tarjan) for the bicc kinds.
type reference struct {
	root []int32
	bc   *bicc.Ref
	// Component labels must form the same partition as root: each root
	// maps to one label and each label to one root.
	labelOf map[int32]int32
	rootOf  map[int32]int32
}

func newReference(g *graph.Graph, withBicc bool) *reference {
	uf := unionfind.NewRef(g.N())
	for _, e := range g.Edges() {
		uf.Union(e[0], e[1])
	}
	r := &reference{root: make([]int32, g.N()), labelOf: map[int32]int32{}, rootOf: map[int32]int32{}}
	for v := range r.root {
		r.root[v] = uf.Find(int32(v))
	}
	if withBicc {
		r.bc = bicc.NewRef(g)
	}
	return r
}

// fresh returns a reference to the same graph with no component labels
// seen yet: labels are canonical only within one snapshot epoch.
func (r *reference) fresh() *reference {
	return &reference{root: r.root, bc: r.bc, labelOf: map[int32]int32{}, rootOf: map[int32]int32{}}
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// check returns how many of the answers are wrong.
func (r *reference) check(qs []serve.Query, ans []int32) (bad int) {
	for i, q := range qs {
		if !r.ok(q, ans[i]) {
			bad++
		}
	}
	return bad
}

func (r *reference) ok(q serve.Query, a int32) bool {
	if a == errAnswer {
		return false
	}
	u, v := q.U, q.V
	switch q.Kind {
	case serve.KindConnected:
		return a == b2i(r.root[u] == r.root[v])
	case serve.KindComponent:
		root := r.root[u]
		if l, seen := r.labelOf[root]; seen {
			return l == a
		}
		if _, taken := r.rootOf[a]; taken {
			return false
		}
		r.labelOf[root], r.rootOf[a] = a, root
		return true
	}
	if r.bc == nil {
		return false
	}
	switch q.Kind {
	case serve.KindBridge:
		return a == b2i(r.bc.IsBridge(u, v))
	case serve.KindArticulation:
		return a == b2i(r.bc.IsArticulation[u])
	case serve.KindBiconnected:
		return a == b2i(u == v || r.bc.SameBCC(u, v))
	case serve.KindTwoEdgeConnected:
		return a == b2i(r.bc.TwoEdgeCC[u] == r.bc.TwoEdgeCC[v])
	}
	return false
}
