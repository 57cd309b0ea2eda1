package decomp

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// TestBuildParallelDeterministic holds Build's parallel passes to the
// one-processor build: under GOMAXPROCS(1) each pass runs as one chunk,
// under the default one chunk per processor. Every field (the center and
// primary bits, the center list, the rank directory, the counts), the
// charged reads/writes/ops and the symmetric high-water must be equal.
// Run under -race, the repeated default builds are the data-race check of
// the concurrent recursions, which set bits in shared words.
func TestBuildParallelDeterministic(t *testing.T) {
	cases := []struct {
		name  string
		gen   func() *graph.Graph // built only if the subtest runs
		opt   Options
		extra bool // the extension pass must mark primaries
	}{
		{"uniform", func() *graph.Graph { return graph.RandomRegular(8192, 3, 42) }, Options{}, false},
		// The engine-bicc-skew benchmark graph (n = 130770 after bounding).
		{"powerlaw", func() *graph.Graph { return graph.BoundDegree(graph.PowerLaw(16384, 4, 99), 3).G }, Options{}, false},
		{"parallel-variant", func() *graph.Graph { return graph.RandomRegular(8192, 3, 42) }, Options{Parallel: true}, false},
		// 100 components of 20 vertices at k = 8: about 7% of them draw no
		// primary, so the extension marks their smallest vertices, and the
		// other vertices of those components search again after the marks.
		{"extension-marks", func() *graph.Graph { return graph.Disconnected(graph.Cycle(20), 100) }, Options{}, true},
	}
	type result struct {
		d    *Decomposition
		cost asym.Cost
		high int64
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.gen()
			build := func() result {
				m := asym.NewMeter(64)
				sym := asym.NewSymTracker(0)
				d := Build(parallel.NewCtx(m, sym), graph.View{G: g, M: m}, 8, 7, tc.opt)
				return result{d, m.Snapshot(), sym.HighWater()}
			}
			prev := runtime.GOMAXPROCS(1)
			want := build()
			runtime.GOMAXPROCS(prev)
			if got := want.d.ExtraPrimaries > 0; got != tc.extra {
				t.Fatalf("extension marked %d primaries; want some = %v", want.d.ExtraPrimaries, tc.extra)
			}
			for i := 0; i < 3; i++ {
				got := build()
				if got.cost != want.cost || got.high != want.high {
					t.Fatalf("build %d at GOMAXPROCS=%d charged %v, high-water %d; one processor charged %v, high-water %d",
						i, prev, got.cost, got.high, want.cost, want.high)
				}
				if got.d.PrimaryCount != want.d.PrimaryCount || got.d.SecondaryCount != want.d.SecondaryCount ||
					got.d.ExtraPrimaries != want.d.ExtraPrimaries || got.d.NumCenters() != want.d.NumCenters() {
					t.Fatalf("build %d: %d primaries (%d extra), %d secondaries, %d centers; one processor gave %d (%d), %d, %d",
						i, got.d.PrimaryCount, got.d.ExtraPrimaries, got.d.SecondaryCount, got.d.NumCenters(),
						want.d.PrimaryCount, want.d.ExtraPrimaries, want.d.SecondaryCount, want.d.NumCenters())
				}
				if !reflect.DeepEqual(got.d, want.d) {
					t.Fatalf("build %d at GOMAXPROCS=%d stored different fields than the one-processor build", i, prev)
				}
			}
		})
	}
}

// TestExtensionCostsPinned pins Build's costs on a graph whose extension
// pass marks primaries (the extension-marks case above; ω = 64, k = 8, seed
// 7). The pins were taken from the sequential build, which searched the
// vertices in id order and marked as it went; the parallel pass refunds
// and redoes the searches that order would have stopped at a mark, so ops,
// writes and the high-water are unchanged. Reads fell only by the walks
// the cluster searches now skip: prevReads is the sequential build's pin.
func TestExtensionCostsPinned(t *testing.T) {
	const reads, writes, ops, high, prevReads = 148769, 1129, 41323, 43, 150595
	g := graph.Disconnected(graph.Cycle(20), 100)
	m := asym.NewMeter(64)
	sym := asym.NewSymTracker(0)
	d := Build(parallel.NewCtx(m, sym), graph.View{G: g, M: m}, 8, 7, Options{})
	if d.ExtraPrimaries == 0 {
		t.Fatal("the extension marked no primary")
	}
	if m.Reads() != reads || m.Writes() != writes || m.Ops() != ops || sym.HighWater() != high {
		t.Errorf("build charged r=%d w=%d o=%d high=%d, want r=%d w=%d o=%d high=%d",
			m.Reads(), m.Writes(), m.Ops(), sym.HighWater(), reads, writes, ops, high)
	}
	if got, want := int64(prevReads-reads), SkippedWalkReads(d, Options{}); got != want {
		t.Errorf("reads fell by %d, the skipped walks read %d", got, want)
	}
}
