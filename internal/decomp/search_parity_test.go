package decomp

import (
	"math"
	"slices"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
)

// TestScratchChargesMatchNilScratch pins the cost half of the
// serving layer's worker-scratch contract at the search layer: reusing a Scratch must not change charged
// costs. Rho early-exits mid-scan whenever a primary is hit partway through
// an adjacency span, so this exercises exactly the partial-span charging
// that a bulk up-front charge would get wrong. The cluster and
// neighbor-center listings and the center paths get the same check, with
// the symmetric-memory high-water compared as well. Each check runs on a
// fresh scratch and on a grown one, whose tables are far larger than the
// searches need and full of stale slots that must never read back.
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
			for _, sc := range []*Scratch{NewScratch(), grownScratch()} {
				checkScratchParity(t, d, g, sc, gi, k)
			}
		}
	}
}

// grownScratch returns a scratch whose search ran to exhaustion on
// Grid2D(12,12) (cap 0, a visit that never stops it), so its parent table
// has grown to hold all 144 vertices.
func grownScratch() *Scratch {
	d, _, _ := build(graph.Grid2D(12, 12), 8, 7, Options{})
	sc := NewScratch()
	d.search(asym.NewMeter(1), nil, sc, 0, 0, func(int32) bool { return false })
	return sc
}

// checkScratchParity checks every scratch-taking query on sc against its
// per-call-state twin: same results, same charges, same symmetric
// high-water.
func checkScratchParity(t *testing.T, d *Decomposition, g *graph.Graph, sc *Scratch, gi, k int) {
	t.Helper()
	for v := 0; v < g.N(); v++ {
		slow, fast := newProbe(), newProbe()
		want := d.Rho(slow.m, slow.sym, int32(v))
		got := d.RhoS(fast.m, fast.sym, sc, int32(v))
		if got != want {
			t.Fatalf("graph %d k=%d: RhoS(%d)=%d, Rho=%d", gi, k, v, got, want)
		}
		fast.check(t, slow, "Rho", gi, k, int32(v))
	}
	// Cluster listings, neighbor-center listings and center paths:
	// a reused scratch must charge what a fresh one does and reach
	// the same symmetric high-water, whatever earlier calls left in
	// its buffers.
	for ci := 0; ci < d.NumCenters(); ci++ {
		s := d.Center(asym.NewMeter(1), ci)
		fresh, reused := newProbe(), newProbe()
		wantC := d.Cluster(fresh.m, fresh.sym, s)
		gotC := d.ClusterS(reused.m, reused.sym, sc, s)
		if !slices.Equal(gotC, wantC) {
			t.Fatalf("graph %d k=%d: ClusterS(%d)=%v, Cluster=%v", gi, k, s, gotC, wantC)
		}
		reused.check(t, fresh, "Cluster", gi, k, s)
		fresh, reused = newProbe(), newProbe()
		wantN := d.NeighborCenters(fresh.m, fresh.sym, s)
		gotN := d.NeighborCentersS(reused.m, reused.sym, sc, s)
		if !slices.Equal(gotN, wantN) {
			t.Fatalf("graph %d k=%d: NeighborCentersS(%d)=%v, NeighborCenters=%v", gi, k, s, gotN, wantN)
		}
		reused.check(t, fresh, "NeighborCenters", gi, k, s)
	}
	for v := 0; v < g.N(); v++ {
		slow, fast := newProbe(), newProbe()
		want := d.PathToCenter(slow.m, slow.sym, int32(v))
		got := d.PathToCenterS(fast.m, fast.sym, sc, int32(v))
		if !slices.Equal(got, want) {
			t.Fatalf("graph %d k=%d: PathToCenterS(%d)=%v, PathToCenter=%v", gi, k, v, got, want)
		}
		fast.check(t, slow, "PathToCenter", gi, k, int32(v))
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

// TestWarmScratchZeroAlloc pins the zero-alloc half of the scratch
// contract: on a warm scratch RhoS, ClusterS, NeighborCentersS and
// PathToCenterS allocate nothing, also on the call right after the
// generation counters of every table wrap.
func TestWarmScratchZeroAlloc(t *testing.T) {
	g := graph.Grid2D(12, 12)
	d, _, _ := build(g, 8, 7, Options{})
	p := newProbe()
	sc := grownScratch()
	queries := func() {
		for v := int32(0); int(v) < g.N(); v += 11 {
			s := d.RhoS(p.m, p.sym, sc, v)
			d.ClusterS(p.m, p.sym, sc, s)
			d.NeighborCentersS(p.m, p.sym, sc, s)
			d.PathToCenterS(p.m, p.sym, sc, v)
		}
	}
	queries() // warm every buffer to its high-water
	if a := testing.AllocsPerRun(20, queries); a != 0 {
		t.Fatalf("warm scratch: %v allocs per run, want 0", a)
	}
	wrapped := func() {
		for _, tab := range [...]*vertexTable{&sc.parent, &sc.cSeen, &sc.ncSeen} {
			tab.gen = math.MaxUint32 // the next reset wraps
		}
		queries()
	}
	if a := testing.AllocsPerRun(20, wrapped); a != 0 {
		t.Fatalf("warm scratch after a generation wrap: %v allocs per run, want 0", a)
	}
	if sc.parent.gen == math.MaxUint32 || sc.parent.gen == 0 {
		t.Fatalf("parent table generation %d after the wrap", sc.parent.gen)
	}
}

// costProbe is a fresh meter and symmetric tracker for one call whose
// charges are compared against another call's.
type costProbe struct {
	m   *asym.Meter
	sym *asym.SymTracker
}

func newProbe() costProbe {
	return costProbe{asym.NewMeter(asym.DefaultOmega), asym.NewSymTracker(0)}
}

// check fails the test unless p charged exactly what want did: reads,
// writes, ops and the symmetric high-water.
func (p costProbe) check(t *testing.T, want costProbe, what string, gi, k int, x int32) {
	t.Helper()
	if p.m.Reads() != want.m.Reads() || p.m.Writes() != want.m.Writes() || p.m.Ops() != want.m.Ops() ||
		p.sym.HighWater() != want.sym.HighWater() {
		t.Fatalf("graph %d k=%d %s(%d): reused scratch charges r=%d w=%d o=%d sym=%d, per-call state r=%d w=%d o=%d sym=%d",
			gi, k, what, x, p.m.Reads(), p.m.Writes(), p.m.Ops(), p.sym.HighWater(),
			want.m.Reads(), want.m.Writes(), want.m.Ops(), want.sym.HighWater())
	}
}

// TestNeighborCentersIsOneListing pins the cost of a clusters-graph
// neighbor listing: on fresh meters, NeighborCentersS charges exactly what
// ClusterS charges plus one scan of the members' adjacency (a degree read
// and one read per slot), with no ρ search of its own, and reaches the same
// symmetric high-water. The boundary neighbors' ρ come from the listing's
// record, which is checked against Rho on every vertex of N[C].
func TestNeighborCentersIsOneListing(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(64),
		graph.Grid2D(12, 12),
		graph.RandomRegular(150, 3, 3),
		graph.Lollipop(20, 30),
		graph.Disconnected(graph.Cycle(5), 3),
		graph.BoundDegree(graph.PowerLaw(400, 4, 9), 3).G,
	}
	for gi, g := range graphs {
		for _, k := range []int{2, 8} {
			d, _, _ := build(g, k, 7, Options{})
			sc := NewScratch()
			for ci := 0; ci < d.NumCenters(); ci++ {
				s := d.Center(asym.NewMeter(1), ci)
				list, nbrs := newProbe(), newProbe()
				members := d.ClusterS(list.m, list.sym, NewScratch(), s)
				scan := int64(0)
				for _, v := range members {
					scan += 1 + int64(g.Degree(int(v)))
				}
				d.NeighborCentersS(nbrs.m, nbrs.sym, sc, s)
				if nbrs.m.Reads() != list.m.Reads()+scan || nbrs.m.Ops() != list.m.Ops() || nbrs.m.Writes() != 0 {
					t.Fatalf("graph %d k=%d center %d: NeighborCentersS charged r=%d o=%d w=%d, want listing r=%d + scan %d, o=%d, w=0",
						gi, k, s, nbrs.m.Reads(), nbrs.m.Ops(), nbrs.m.Writes(), list.m.Reads(), scan, list.m.Ops())
				}
				if nbrs.sym.HighWater() != list.sym.HighWater() {
					t.Fatalf("graph %d k=%d center %d: NeighborCentersS symmetric high-water %d, listing %d",
						gi, k, s, nbrs.sym.HighWater(), list.sym.HighWater())
				}
				got, listed := sc.Listing()
				if !slices.Equal(got, members) {
					t.Fatalf("graph %d k=%d center %d: Listing members %v, ClusterS %v", gi, k, s, got, members)
				}
				closed := map[int32]bool{}
				for _, v := range members {
					closed[v] = true
					for _, u := range g.Adj(int(v)) {
						closed[u] = true
					}
				}
				if len(members) > 0 && listed != len(closed) {
					t.Fatalf("graph %d k=%d center %d: listing recorded %d vertices, |N[C]| = %d", gi, k, s, listed, len(closed))
				}
				qm := asym.NewMeter(1)
				for u := int32(0); int(u) < g.N(); u++ {
					want := int32(-1)
					if closed[u] {
						want = d.Rho(qm, nil, u)
					}
					if got := sc.ListedRho(u); got != want {
						t.Fatalf("graph %d k=%d center %d: ListedRho(%d) = %d, want %d", gi, k, s, u, got, want)
					}
				}
			}
		}
	}
}
