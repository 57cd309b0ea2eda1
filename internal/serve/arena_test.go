package serve

import "testing"

// TestUndersizedLabelArenaStaysValid drives answer directly with a label
// arena deliberately sized below the query count (the public Do path always
// sizes it to one slot per query). Overflow labels must be boxed instead of
// appended through a reallocation, so Result.Label pointers returned before
// the overflow keep pointing at the values they held when returned.
func TestUndersizedLabelArenaStaysValid(t *testing.T) {
	for name, g := range testGraphs(t) {
		t.Run(name, func(t *testing.T) {
			e := New(g, Config{Omega: 16, Seed: 5})
			s := e.snap.Load()
			w := e.getWorker()
			defer e.putWorker(w)

			const nq = 64
			labels := make([]int32, 0, nq/4) // deliberately too small
			results := make([]Result, 0, nq)
			want := make([]int32, 0, nq)
			for i := 0; i < nq; i++ {
				q := Query{Kind: KindComponent, U: int32(i % g.N())}
				res := e.answer(s, w, q, &labels)
				if res.Err != "" || res.Label == nil {
					t.Fatalf("query %d: unexpected result %+v", i, res)
				}
				results = append(results, res)
				want = append(want, *res.Label)
			}
			for i, res := range results {
				if *res.Label != want[i] {
					t.Fatalf("query %d: Label drifted from %d to %d after arena overflow",
						i, want[i], *res.Label)
				}
			}
		})
	}
}
