// Package oracle defines the pluggable query-oracle surface of the serving
// layer: a QueryOracle interface that any of the paper's (or future) query
// structures can implement, plus a process-wide kind registry that maps
// query kinds ("connected", "bridge", ...) to the factory that builds an
// oracle answering them.
//
// The serving engine (internal/serve) no longer hardcodes the two paper
// oracles; it asks this registry which factories exist, builds one oracle
// per factory over each graph snapshot, and dispatches queries by kind.
// A new oracle — a spanning-forest enumerator, a 2-edge-connectivity
// oracle — plugs in by calling Register from an init function and never
// touches the engine.
//
// Contract mirrored from the underlying oracles: a QueryOracle is immutable
// after construction, queries charge only the Meter/SymTracker they are
// handed (so any number of goroutines may query concurrently with private
// meters), and queries perform no asymmetric writes.
package oracle

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Kind names a query type answerable by some registered oracle.
type Kind string

// The built-in kinds. Connected and Component are served by the Theorem 4.4
// connectivity oracle; Bridge, Articulation, Biconnected and
// TwoEdgeConnected by the Theorem 5.3 biconnectivity oracle (2-edge
// connectivity is the §5.3 OneEdgeConnected query: no single edge removal
// separates the pair).
const (
	KindConnected        Kind = "connected"    // u, v — same component?
	KindComponent        Kind = "component"    // u — canonical component label
	KindBridge           Kind = "bridge"       // u, v — is edge {u,v} a bridge?
	KindArticulation     Kind = "articulation" // u — is u a cut vertex?
	KindBiconnected      Kind = "biconnected"  // u, v — biconnected pair?
	KindTwoEdgeConnected Kind = "2ecc"         // u, v — same 2-edge-connected component?
)

// Spec describes one query kind: its wire name and whether it takes a
// vertex pair (U and V both validated) or a single vertex (V ignored).
type Spec struct {
	Kind     Kind `json:"kind"`
	Pairwise bool `json:"pairwise"`
}

// Query is one oracle query in registry terms. V is meaningless for
// non-pairwise kinds.
type Query struct {
	Kind Kind
	U, V int32
}

// AnswerVal is a successful query answer: for boolean kinds IsBool is true
// and Bool carries the answer; otherwise Label carries the component label.
// Nothing here is pointer-typed, so returning one never escapes to the
// heap — the serving engine's per-query path allocates nothing.
type AnswerVal struct {
	Label  int32
	Bool   bool
	IsBool bool
}

// QueryOracle answers queries of the kinds its factory declares, over one
// immutable graph snapshot.
//
//   - NewScratch returns a workspace a serving worker allocates once and
//     passes back on every Answer call (nil when the oracle needs none). A
//     scratch must only depend on the oracle's *type* — snapshot swaps hand
//     the same scratch to the next epoch's oracle instance.
//   - Answer must only be called with in-range vertices of a declared kind;
//     costs are charged to m, symmetric scratch to sym. A nil scratch is
//     always accepted (the oracle allocates per call) and must charge
//     exactly what a warm scratch charges.
//
// A scratch is worker-local and never used concurrently; the oracle itself
// must be safe for concurrent Answer calls with distinct scratches and
// per-caller meters (the conn/bicc concurrency contract).
type QueryOracle interface {
	NewScratch() any
	Answer(m *asym.Meter, sym *asym.SymTracker, q Query, scratch any) (AnswerVal, error)
}

// InsertionApplier is implemented by oracles that can fold an
// insertion-only edge batch into a new oracle with o(rebuild) writes
// instead of a full reconstruction (conn.Oracle.ApplyInsertions). The
// receiver is not modified; the returned oracle serves the extended edge
// multiset.
type InsertionApplier interface {
	ApplyInsertions(m *asym.Meter, sym *asym.SymTracker, edges [][2]int32) (QueryOracle, error)
}

// ErrNeedsRebuild is the typed refusal of the patch appliers: the batch
// cannot be absorbed incrementally (a deletion genuinely splits a
// component; an inserted edge merges biconnected blocks) and the caller
// must step down the strategy ladder — a full reconstruction, or for a
// Deferrable factory the lazy on-demand rebuild. It signals a strategy
// decision, not a failure — the receiver oracle is untouched and still
// valid for its own snapshot.
var ErrNeedsRebuild = errors.New("oracle: update batch needs a rebuild")

// DeletionApplier mirrors InsertionApplier for edge removals: oracles that
// maintain enough structure (conn's explicit spanning forest) to absorb a
// deletion batch with O(batch) writes whenever connectivity is preserved.
// next is the already-materialized post-batch graph — the serving layer
// builds the new CSR for every strategy, so the replacement-edge search
// runs over it instead of a private overlay. A batch the oracle cannot
// absorb returns an error wrapping ErrNeedsRebuild.
type DeletionApplier interface {
	ApplyDeletions(m *asym.Meter, sym *asym.SymTracker, removed [][2]int32, next *graph.Graph) (QueryOracle, error)
}

// Rebaser is implemented by oracles whose incremental patches form a chain
// (remap tables, maintained forests) that should periodically be collapsed
// onto a fresh construction. ChainDepth reports how many patched
// generations separate the oracle from its last full build; Rebase pays one
// reconstruction over the current graph to reset it to zero.
type Rebaser interface {
	ChainDepth() int
	Rebase(c *parallel.Ctx, vw graph.View, k int, seed uint64) QueryOracle
}

// ForestCarrier is implemented by oracles that maintain an explicit
// spanning forest across dynamic updates. ForestEdges is the persistence
// accessor (normalized, sorted; nil when absent); AdoptForest is the
// recovery constructor — it returns a copy of the oracle carrying a
// previously persisted forest and chain depth, validating the forest
// against the oracle's graph (an error means the caller keeps the oracle's
// own freshly seeded forest).
type ForestCarrier interface {
	ForestEdges() [][2]int32
	AdoptForest(edges [][2]int32, chainDepth int) (QueryOracle, error)
}

// ComponentCounter exposes the connected-component count of the oracle's
// snapshot (components with at least one stored center).
type ComponentCounter interface{ NumComponents() int }

// BCCCounter exposes the biconnected-component count of the snapshot.
type BCCCounter interface{ NumBCC() int }

// CacheStatser is implemented by oracles whose Answer memoizes derived
// per-snapshot structures (the bicc cluster local-graph cache). The
// serving layer sums these counters into /stats; caching must never change
// answers or charged costs — hits replay the fill-time charges.
type CacheStatser interface {
	CacheStats() (hits, misses, evictions int64)
}

// Factory builds the oracle serving one family of kinds. Build runs under a
// parallel.Ctx (construction work and depth are metered) and must return an
// immutable oracle; k <= 0 selects the factory's default (the paper's
// k = ⌈√ω⌉ for both built-ins).
type Factory struct {
	// Name identifies the factory ("conn", "bicc") in build-cost telemetry.
	Name string
	// Specs lists the kinds this factory's oracles answer.
	Specs []Spec
	// Build constructs the oracle over the graph behind vw, charging vw.M.
	Build func(c *parallel.Ctx, vw graph.View, k int, seed uint64) QueryOracle
	// Deferrable marks a factory whose rebuild the serving layer may defer:
	// instead of reconstructing the oracle on every accepted update batch,
	// the engine carries the last-built instance forward as *stale* and
	// rebuilds on demand the first time one of the factory's kinds is
	// queried at a newer snapshot. The staleness contract: a stale oracle's
	// answers correspond exactly to the epoch it was built at (its tag in
	// the snapshot), never a mixture — the serving layer reports that epoch
	// alongside any answer a bounded-staleness query accepts from it.
	// Non-deferrable factories (conn, whose kinds gate admission semantics)
	// are rebuilt or patched on every publish as before.
	Deferrable bool
}

var (
	regMu     sync.RWMutex
	factories []Factory
	kindOwner = map[Kind]string{} // kind -> factory name
)

// Register adds a factory to the process-wide registry. It fails if the
// factory name or any of its kinds is already taken, or if the factory is
// malformed; registration order is preserved and defines the stable kind
// order reported by Kinds.
func Register(f Factory) error {
	if f.Name == "" || f.Build == nil || len(f.Specs) == 0 {
		return fmt.Errorf("oracle: factory needs a name, specs, and a build func")
	}
	regMu.Lock()
	defer regMu.Unlock()
	for _, existing := range factories {
		if existing.Name == f.Name {
			return fmt.Errorf("oracle: factory %q already registered", f.Name)
		}
	}
	seen := map[Kind]bool{}
	for _, s := range f.Specs {
		if owner, ok := kindOwner[s.Kind]; ok {
			return fmt.Errorf("oracle: kind %q already registered by factory %q", s.Kind, owner)
		}
		if seen[s.Kind] {
			return fmt.Errorf("oracle: factory %q lists kind %q twice", f.Name, s.Kind)
		}
		seen[s.Kind] = true
	}
	for _, s := range f.Specs {
		kindOwner[s.Kind] = f.Name
	}
	factories = append(factories, f)
	return nil
}

// MustRegister is Register that panics on error; for init-time use.
func MustRegister(f Factory) {
	if err := Register(f); err != nil {
		panic(err)
	}
}

// Factories returns the registered factories in registration order.
func Factories() []Factory {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Factory(nil), factories...)
}

// Kinds returns every registered kind in registration order.
func Kinds() []Kind {
	regMu.RLock()
	defer regMu.RUnlock()
	var ks []Kind
	for _, f := range factories {
		for _, s := range f.Specs {
			ks = append(ks, s.Kind)
		}
	}
	return ks
}

// SpecOf returns the spec of a registered kind.
func SpecOf(k Kind) (Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, f := range factories {
		for _, s := range f.Specs {
			if s.Kind == k {
				return s, true
			}
		}
	}
	return Spec{}, false
}

// Names returns the registered factory names, sorted (registration-order
// independent, so output built from it is stable).
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(factories))
	for _, f := range factories {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}
