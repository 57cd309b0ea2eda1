package oracle

import (
	"errors"
	"testing"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/graph"
	"repro/internal/parallel"
)

func buildAll(t *testing.T, g *graph.Graph, omega int) map[string]QueryOracle {
	t.Helper()
	out := map[string]QueryOracle{}
	for _, f := range Factories() {
		m := asym.NewMeter(omega)
		c := parallel.NewCtx(m, asym.NewSymTracker(0))
		out[f.Name] = f.Build(c, graph.View{G: g, M: m}, 0, 7)
	}
	return out
}

// TestBuiltinsRegistered pins the built-in registry contents: both paper
// oracles present, the six kinds in the stable serving order, correct
// pairwise arity.
func TestBuiltinsRegistered(t *testing.T) {
	names := Names()
	hasConn, hasBicc := false, false
	for _, n := range names {
		hasConn = hasConn || n == "conn"
		hasBicc = hasBicc || n == "bicc"
	}
	if !hasConn || !hasBicc {
		t.Fatalf("builtins missing from registry: %v", names)
	}

	wantOrder := []Kind{KindConnected, KindComponent, KindBridge, KindArticulation, KindBiconnected, KindTwoEdgeConnected}
	ks := Kinds()
	if len(ks) < len(wantOrder) {
		t.Fatalf("registry has %d kinds, want at least %d", len(ks), len(wantOrder))
	}
	for i, k := range wantOrder {
		if ks[i] != k {
			t.Fatalf("kind order[%d] = %q, want %q (full: %v)", i, ks[i], k, ks)
		}
	}

	pairwise := map[Kind]bool{
		KindConnected: true, KindComponent: false,
		KindBridge: true, KindArticulation: false, KindBiconnected: true,
		KindTwoEdgeConnected: true,
	}
	for k, want := range pairwise {
		s, ok := SpecOf(k)
		if !ok || s.Pairwise != want {
			t.Errorf("SpecOf(%s) = %+v ok=%v, want pairwise=%v", k, s, ok, want)
		}
	}
	if _, ok := SpecOf("nope"); ok {
		t.Error("SpecOf accepted an unregistered kind")
	}
}

// TestAdaptersMatchDirect checks the thin-adapter property: every kind
// answered through the registry interface must equal the direct oracle call
// and charge the same cost and symmetric high-water. It runs twice: once
// with nil scratch, once reusing one NewScratch per adapter across every
// query, so the warm scratch and the bicc cluster-cache hits (filled by
// the first pass, replayed by the second) are held to the paper path's
// charges too.
func TestAdaptersMatchDirect(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(15), 4)
	omega := 16
	built := buildAll(t, g, omega)

	dm := asym.NewMeter(omega)
	dc := parallel.NewCtx(dm, asym.NewSymTracker(0))
	co := conn.BuildOracle(dc, graph.View{G: g, M: dm}, 0, 7)
	bo := bicc.BuildOracle(dc, graph.View{G: g, M: dm}, nil, 0, 7)

	for _, warm := range []bool{false, true} {
		scratch := map[string]any{}
		if warm {
			for name, o := range built {
				scratch[name] = o.NewScratch()
			}
		}
		rng := graph.NewRNG(3)
		n := g.N()
		for i := 0; i < 500; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			for _, tc := range []struct {
				name   string
				q      Query
				direct func(*asym.Meter, *asym.SymTracker) AnswerVal
			}{
				{"conn", Query{KindConnected, u, v}, func(m *asym.Meter, s *asym.SymTracker) AnswerVal {
					return AnswerVal{IsBool: true, Bool: co.Connected(m, s, u, v)}
				}},
				{"conn", Query{KindComponent, u, 0}, func(m *asym.Meter, s *asym.SymTracker) AnswerVal {
					return AnswerVal{Label: co.Query(m, s, u)}
				}},
				{"bicc", Query{KindBridge, u, v}, func(m *asym.Meter, s *asym.SymTracker) AnswerVal {
					return AnswerVal{IsBool: true, Bool: bo.IsBridge(m, s, u, v)}
				}},
				{"bicc", Query{KindArticulation, u, 0}, func(m *asym.Meter, s *asym.SymTracker) AnswerVal {
					return AnswerVal{IsBool: true, Bool: bo.IsArticulation(m, s, u)}
				}},
				{"bicc", Query{KindBiconnected, u, v}, func(m *asym.Meter, s *asym.SymTracker) AnswerVal {
					return AnswerVal{IsBool: true, Bool: bo.Biconnected(m, s, u, v)}
				}},
				{"bicc", Query{KindTwoEdgeConnected, u, v}, func(m *asym.Meter, s *asym.SymTracker) AnswerVal {
					return AnswerVal{IsBool: true, Bool: bo.OneEdgeConnected(m, s, u, v)}
				}},
			} {
				am, dm2 := asym.NewMeter(omega), asym.NewMeter(omega)
				asym1, dsym := asym.NewSymTracker(0), asym.NewSymTracker(0)
				got, err := built[tc.name].Answer(am, asym1, tc.q, scratch[tc.name])
				if err != nil {
					t.Fatalf("warm=%v %s(%d,%d): %v", warm, tc.q.Kind, u, v, err)
				}
				if want := tc.direct(dm2, dsym); got != want {
					t.Fatalf("warm=%v %s(%d,%d): adapter %+v, direct %+v", warm, tc.q.Kind, u, v, got, want)
				}
				// Thin means free: identical costs and symmetric peaks.
				if am.Snapshot() != dm2.Snapshot() {
					t.Fatalf("warm=%v %s(%d,%d): adapter cost %v != direct cost %v", warm, tc.q.Kind, u, v, am.Snapshot(), dm2.Snapshot())
				}
				if asym1.HighWater() != dsym.HighWater() {
					t.Fatalf("warm=%v %s(%d,%d): adapter sym high-water %d != direct %d", warm, tc.q.Kind, u, v, asym1.HighWater(), dsym.HighWater())
				}
			}
		}
	}
	if hits, _, _ := built["bicc"].(CacheStatser).CacheStats(); hits == 0 {
		t.Fatal("repeated bicc queries never hit the cluster cache")
	}

	// Kinds outside a factory's family are rejected, not misanswered.
	if _, err := built["conn"].Answer(asym.NewMeter(omega), nil, Query{Kind: KindBridge, U: 0, V: 1}, nil); err == nil {
		t.Error("conn adapter answered a bicc kind")
	}
	if _, err := built["bicc"].Answer(asym.NewMeter(omega), nil, Query{Kind: KindComponent, U: 0}, nil); err == nil {
		t.Error("bicc adapter answered a conn kind")
	}
}

// TestCounters checks the optional counting interfaces resolve through the
// interface values the factories return.
func TestCounters(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(8), 5)
	built := buildAll(t, g, 16)
	cc, ok := built["conn"].(ComponentCounter)
	if !ok || cc.NumComponents() != 5 {
		t.Fatalf("conn ComponentCounter: ok=%v components=%v", ok, cc)
	}
	bc, ok := built["bicc"].(BCCCounter)
	if !ok || bc.NumBCC() != 5 {
		t.Fatalf("bicc BCCCounter: ok=%v bccs=%v", ok, bc)
	}
}

// TestBiccPatchSurface pins the bicc adapter's patch-first contract: both
// appliers are advertised, a provably structure-preserving batch is
// absorbed by returning the receiver unchanged, and anything that could
// move the block-cut tree is refused with the typed ErrNeedsRebuild (the
// serving layer's signal to defer the rebuild to the first query).
func TestBiccPatchSurface(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(8), 2) // two 8-cycles: one block each
	built := buildAll(t, g, 16)
	ia, ok := built["bicc"].(InsertionApplier)
	if !ok {
		t.Fatal("bicc adapter must implement InsertionApplier")
	}
	da, ok := built["bicc"].(DeletionApplier)
	if !ok {
		t.Fatal("bicc adapter must implement DeletionApplier")
	}
	m := asym.NewMeter(16)
	sym := asym.NewSymTracker(0)

	// A chord inside one cycle and a self-loop are no-ops: the same
	// instance comes back (identity, not a copy — the serving layer's
	// carried-forward detection relies on it).
	same, err := ia.ApplyInsertions(m, sym, [][2]int32{{0, 3}, {5, 5}})
	if err != nil {
		t.Fatalf("within-block insertions refused: %v", err)
	}
	if same != built["bicc"] {
		t.Fatal("no-op insertion patch did not return the receiver")
	}
	// An edge between the two cycles merges blocks: refused, typed.
	if _, err := ia.ApplyInsertions(m, sym, [][2]int32{{0, 8}}); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("merging insertion: err=%v, want ErrNeedsRebuild", err)
	}

	// Deleting one copy of a doubled edge keeps multiplicity >= 1... the
	// no-op rule needs multiplicity >= 2 *after* removal, so removing a
	// plain cycle edge (multiplicity 0 after) is refused.
	postG := graph.FromEdges(g.N(), g.Edges()[1:])
	if _, err := da.ApplyDeletions(m, sym, [][2]int32{g.Edges()[0]}, postG); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("structural deletion: err=%v, want ErrNeedsRebuild", err)
	}
	// A self-loop removal is always a no-op.
	loopG := graph.FromEdges(g.N(), append(append([][2]int32{}, g.Edges()...), [2]int32{2, 2}))
	loopBuilt := buildAll(t, loopG, 16)
	lda := loopBuilt["bicc"].(DeletionApplier)
	same, err = lda.ApplyDeletions(m, sym, [][2]int32{{2, 2}}, g)
	if err != nil {
		t.Fatalf("self-loop deletion refused: %v", err)
	}
	if same != loopBuilt["bicc"] {
		t.Fatal("no-op deletion patch did not return the receiver")
	}
}

// TestInsertionApplier checks the incremental path composes through the
// interface: applying a merging batch yields an oracle answering over the
// extended edge set.
func TestInsertionApplier(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(10), 3) // vertices 0..9, 10..19, 20..29
	built := buildAll(t, g, 16)
	ia, ok := built["conn"].(InsertionApplier)
	if !ok {
		t.Fatal("conn adapter must implement InsertionApplier")
	}
	m := asym.NewMeter(16)
	sym := asym.NewSymTracker(0)
	next, err := ia.ApplyInsertions(m, sym, [][2]int32{{0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	ans, err := next.Answer(m, sym, Query{Kind: KindConnected, U: 0, V: 15}, nil)
	if err != nil || !ans.Bool {
		t.Fatalf("merged components not connected: %+v err=%v", ans, err)
	}
	if next.(ComponentCounter).NumComponents() != 2 {
		t.Fatalf("components = %d, want 2", next.(ComponentCounter).NumComponents())
	}
	// The base oracle is untouched (copy-on-write snapshot discipline).
	old, _ := built["conn"].Answer(m, sym, Query{Kind: KindConnected, U: 0, V: 15}, nil)
	if old.Bool {
		t.Fatal("base oracle mutated by ApplyInsertions")
	}
}

// TestDeletionApplierAndRebaser pins the dynamic-update capability surface
// of the built-ins: the conn adapter implements DeletionApplier (absorbing
// split-free removals, refusing genuine splits with ErrNeedsRebuild),
// Rebaser (chain depth + collapse) and ForestCarrier (persist/adopt); the
// bicc adapter has no re-base path (its appliers are the no-op patch
// predicates, TestBiccPatchSurface).
func TestDeletionApplierAndRebaser(t *testing.T) {
	g := graph.Disconnected(graph.Cycle(10), 3)
	built := buildAll(t, g, 16)
	if _, ok := built["bicc"].(Rebaser); ok {
		t.Fatal("bicc adapter claims a re-base path")
	}
	da, ok := built["conn"].(DeletionApplier)
	if !ok {
		t.Fatal("conn adapter must implement DeletionApplier")
	}
	m := asym.NewMeter(16)
	sym := asym.NewSymTracker(0)

	// A cycle edge is split-free: absorbed without error, same components.
	cut := g.Edges()[0]
	edges := append([][2]int32{}, g.Edges()[1:]...)
	next := graph.FromEdges(g.N(), edges)
	patched, err := da.ApplyDeletions(m, sym, [][2]int32{cut}, next)
	if err != nil {
		t.Fatal(err)
	}
	if patched.(ComponentCounter).NumComponents() != 3 {
		t.Fatalf("components %d, want 3", patched.(ComponentCounter).NumComponents())
	}
	if patched.(Rebaser).ChainDepth() != 1 {
		t.Fatalf("depth %d, want 1", patched.(Rebaser).ChainDepth())
	}

	// Cutting the now-path island genuinely splits: typed refusal.
	cut2 := edges[0]
	next2 := graph.FromEdges(g.N(), edges[1:])
	if _, err := patched.(DeletionApplier).ApplyDeletions(m, sym, [][2]int32{cut2}, next2); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("split refusal: %v, want ErrNeedsRebuild", err)
	}

	// Re-base collapses the chain; the forest round-trips through the
	// carrier hooks.
	c := parallel.NewCtx(asym.NewMeter(16), asym.NewSymTracker(0))
	rb := patched.(Rebaser).Rebase(c, graph.View{G: next, M: asym.NewMeter(16)}, 0, 7)
	if rb.(Rebaser).ChainDepth() != 0 {
		t.Fatalf("rebased depth %d", rb.(Rebaser).ChainDepth())
	}
	fc := rb.(ForestCarrier)
	forest := fc.ForestEdges()
	if len(forest) == 0 {
		t.Fatal("rebased oracle carries no forest")
	}
	adopted, err := fc.AdoptForest(forest, 42)
	if err != nil {
		t.Fatal(err)
	}
	if adopted.(Rebaser).ChainDepth() != 42 {
		t.Fatalf("adopted depth %d, want 42", adopted.(Rebaser).ChainDepth())
	}
	if _, err := fc.AdoptForest([][2]int32{{0, 25}}, 0); err == nil {
		t.Fatal("stale forest adopted")
	}
}

// TestRegisterCustomKind is the extensibility contract: a third-party
// factory plugs a new kind into the registry and answers through the same
// generic dispatch, with no engine involvement.
func TestRegisterCustomKind(t *testing.T) {
	err := Register(Factory{
		Name:  "parity-test",
		Specs: []Spec{{Kind: "same-parity", Pairwise: true}},
		Build: func(c *parallel.Ctx, vw graph.View, k int, seed uint64) QueryOracle {
			return parityOracle{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := SpecOf("same-parity"); !ok || !s.Pairwise {
		t.Fatalf("custom kind not resolvable: %+v ok=%v", s, ok)
	}
	g := graph.Path(4)
	var custom QueryOracle
	for _, f := range Factories() {
		if f.Name == "parity-test" {
			m := asym.NewMeter(8)
			custom = f.Build(parallel.NewCtx(m, nil), graph.View{G: g, M: m}, 0, 1)
		}
	}
	if custom == nil {
		t.Fatal("custom factory not listed")
	}
	ans, err := custom.Answer(asym.NewMeter(8), nil, Query{Kind: "same-parity", U: 2, V: 4}, custom.NewScratch())
	if err != nil || !ans.IsBool || !ans.Bool {
		t.Fatalf("custom oracle: %+v err=%v", ans, err)
	}

	// Duplicate kinds and names are rejected.
	if err := Register(Factory{
		Name:  "parity-test-2",
		Specs: []Spec{{Kind: "same-parity"}},
		Build: func(*parallel.Ctx, graph.View, int, uint64) QueryOracle { return parityOracle{} },
	}); err == nil {
		t.Error("duplicate kind accepted")
	}
	if err := Register(Factory{
		Name:  "conn",
		Specs: []Spec{{Kind: "conn-dup"}},
		Build: func(*parallel.Ctx, graph.View, int, uint64) QueryOracle { return parityOracle{} },
	}); err == nil {
		t.Error("duplicate factory name accepted")
	}
	if err := Register(Factory{Name: "broken"}); err == nil {
		t.Error("malformed factory accepted")
	}
	if err := Register(Factory{
		Name:  "self-dup",
		Specs: []Spec{{Kind: "twice", Pairwise: true}, {Kind: "twice"}},
		Build: func(*parallel.Ctx, graph.View, int, uint64) QueryOracle { return parityOracle{} },
	}); err == nil {
		t.Error("factory listing one kind twice accepted")
	}
}

type parityOracle struct{}

func (parityOracle) NewScratch() any { return nil }

func (parityOracle) Answer(m *asym.Meter, _ *asym.SymTracker, q Query, _ any) (AnswerVal, error) {
	m.Read(2)
	return AnswerVal{IsBool: true, Bool: q.U%2 == q.V%2}, nil
}
