package decomp

import (
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
)

// TestScratchChargesMatchNilScratch pins the cost half of the
// QueryOracle.Answer scratch contract at the search layer: reusing a Scratch must not change charged
// costs. Rho early-exits mid-scan whenever a primary is hit partway through
// an adjacency span, so this exercises exactly the partial-span charging
// that a bulk up-front charge would get wrong.
func TestScratchChargesMatchNilScratch(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(64),
		graph.Grid2D(12, 12),
		graph.RandomRegular(150, 3, 3),
		graph.RandomTree(100, 5),
		graph.Lollipop(20, 30),
		graph.Disconnected(graph.Cycle(5), 3),
	}
	for gi, g := range graphs {
		for _, k := range []int{2, 8} {
			d, _, _ := build(g, k, 7, Options{})
			sc := NewScratch()
			for v := 0; v < g.N(); v++ {
				slow := asym.NewMeter(asym.DefaultOmega)
				fast := asym.NewMeter(asym.DefaultOmega)
				want := d.Rho(slow, nil, int32(v))
				got := d.RhoS(fast, nil, sc, int32(v))
				if got != want {
					t.Fatalf("graph %d k=%d: RhoS(%d)=%d, Rho=%d", gi, k, v, got, want)
				}
				if slow.Reads() != fast.Reads() || slow.Writes() != fast.Writes() || slow.Ops() != fast.Ops() {
					t.Fatalf("graph %d k=%d v=%d: scratch charges r=%d w=%d o=%d, nil-scratch r=%d w=%d o=%d",
						gi, k, v, fast.Reads(), fast.Writes(), fast.Ops(), slow.Reads(), slow.Writes(), slow.Ops())
				}
			}
			// Cap-limited searches stop mid-scan at arbitrary slots; both
			// paths must charge the same partial-span reads there too.
			for v := 0; v < g.N(); v += 7 {
				for _, lim := range []int{1, 2, 5} {
					slow := asym.NewMeter(asym.DefaultOmega)
					fast := asym.NewMeter(asym.DefaultOmega)
					d.search(slow, nil, nil, int32(v), lim, func(u int32) bool { return false })
					d.search(fast, nil, sc, int32(v), lim, func(u int32) bool { return false })
					if slow.Reads() != fast.Reads() || slow.Ops() != fast.Ops() {
						t.Fatalf("graph %d k=%d v=%d cap=%d: scratch charges r=%d o=%d, nil-scratch r=%d o=%d",
							gi, k, v, lim, fast.Reads(), fast.Ops(), slow.Reads(), slow.Ops())
					}
				}
			}
		}
	}
}
