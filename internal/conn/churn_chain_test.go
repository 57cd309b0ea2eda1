package conn

import (
	"errors"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/unionfind"
)

// TestMixedChurnChain is the deletion-era mirror of TestRemapChainGrowth:
// a long chain (≥50 batches) interleaving ApplyInsertions, ApplyDeletions
// and periodic re-bases must stay exactly equivalent to a from-scratch
// oracle over the evolving edge multiset — partition, NumComponents — with
// the remap table flat and bounded and the maintained forest always a
// valid spanning forest. Deletions are drawn adversarially from the whole
// edge list; when one genuinely splits a component the chain handles it
// the way the serving ladder does: a fresh build over the post-batch graph.
func TestMixedChurnChain(t *testing.T) {
	base := graph.Disconnected(graph.Cycle(8), 24) // 24 islands, n=192
	n := base.N()
	o := buildDyn(t, base, 4, 11)

	edges := append([][2]int32{}, base.Edges()...)
	cur := o
	qm := asym.NewMeter(16)
	sym := asym.NewSymTracker(0)
	rng := graph.NewRNG(4099)

	const batches = 60
	var rebases, deletionsAbsorbed, splits int
	for b := 0; b < batches; b++ {
		switch b % 3 {
		case 0, 1: // insertions (two per batch, random — merges and chords)
			batch := [][2]int32{
				{int32(rng.Intn(n)), int32(rng.Intn(n))},
				{int32(rng.Intn(n)), int32(rng.Intn(n))},
			}
			nx, err := cur.ApplyInsertions(qm, sym, batch)
			if err != nil {
				t.Fatalf("batch %d insert: %v", b, err)
			}
			edges = append(edges, batch...)
			cur = nx
		default: // deletions (two random copies)
			var removed [][2]int32
			for j := 0; j < 2 && len(edges) > 1; j++ {
				idx := rng.Intn(len(edges))
				removed = append(removed, edges[idx])
				edges[idx] = edges[len(edges)-1]
				edges = edges[:len(edges)-1]
			}
			next := graph.FromEdges(n, edges)
			nx, err := cur.ApplyDeletions(qm, sym, removed, next)
			switch {
			case err == nil:
				deletionsAbsorbed += len(removed)
				cur = nx
			case errors.Is(err, ErrNeedsRebuild):
				// The ladder's fallback: re-base onto the post-batch graph.
				splits++
				cur = buildDyn(t, next, 4, 11)
			default:
				t.Fatalf("batch %d delete: %v", b, err)
			}
		}
		// Scheduled re-base, like Config.RebaseEvery = 6.
		if cur.ChainDepth() >= 6 {
			cur = buildDyn(t, graph.FromEdges(n, edges), 4, 11)
			rebases++
		}

		// Invariants after every batch: equivalence with a reference
		// union-find partition, a spanning forest of the current multiset,
		// and a flat remap.
		ref := unionfind.NewRef(n)
		for _, e := range edges {
			ref.Union(e[0], e[1])
		}
		if !samePartition(oracleLabels(cur, n, 16), ref.Components()) {
			t.Fatalf("batch %d: labels diverge from reference", b)
		}
		checkForestSpans(t, cur, n, edges)
		for k, v := range cur.remap {
			if _, ok := cur.remap[v]; ok {
				t.Fatalf("batch %d: remap chain not flat: %d -> %d -> %d", b, k, v, cur.remap[v])
			}
		}
		if cur.ChainDepth() > 6 {
			t.Fatalf("batch %d: chain depth %d beyond the re-base budget", b, cur.ChainDepth())
		}
	}

	// Equivalence with a from-scratch oracle over the final multiset —
	// partition and the exact component count.
	fg := graph.FromEdges(n, edges)
	fm, fc := env(16)
	fresh := BuildOracle(fc, graph.View{G: fg, M: fm}, 4, 11)
	if !samePartition(oracleLabels(cur, n, 16), oracleLabels(fresh, n, 16)) {
		t.Fatal("chained labels diverge from from-scratch oracle after 60 mixed batches")
	}
	if cur.NumComponents != fresh.NumComponents {
		t.Fatalf("NumComponents: chained %d, from-scratch %d", cur.NumComponents, fresh.NumComponents)
	}
	if deletionsAbsorbed == 0 {
		t.Fatal("no deletion was absorbed incrementally (test lost its teeth)")
	}
	if rebases == 0 {
		t.Fatal("the scheduled re-base never fired (test lost its teeth)")
	}
	t.Logf("60 batches: %d deletions absorbed, %d splits (rebased), %d scheduled rebases, final m=%d",
		deletionsAbsorbed, splits, rebases, len(edges))
}
