// Package serve turns the paper's query oracles into a long-lived,
// concurrent, multi-tenant serving layer. An Engine serves one evolving
// graph; a Registry (registry.go) manages many named engines behind one
// HTTP surface, all drawing query workers from one shared
// admission-controlled Pool (pool.go).
//
// The engine no longer hardcodes the two paper oracles: it builds one
// oracle per factory registered in internal/oracle (the connectivity oracle
// of Theorem 4.4 and the biconnectivity oracle of Theorem 5.3 are the
// built-ins) and dispatches queries by registered kind, so future oracles
// (spanning forest, 2-edge-connectivity) plug in without engine changes.
//
// The design follows the oracles' own cost discipline:
//
//   - Construction is charged to per-oracle meters (all factories build in
//     parallel under one parallel.Ctx), so /stats can report the paper's
//     construction write bounds as live telemetry.
//   - Each worker queries with a private asym.Meter and asym.SymTracker —
//     concurrent queries never share mutable cost-model state — and merges
//     its totals into long-lived per-query-kind aggregate meters when its
//     shard completes (asym.Meter.Merge).
//   - Queries themselves perform no asymmetric writes (that is the paper's
//     headline); the engine charges exactly one write per query for storing
//     the answer into the batch's result slice, which is the usual way an
//     output-sized cost enters the Asymmetric RAM model. Everything else in
//     a query's cost is reads and unit ops.
//
// The engine serves an *evolving* graph through epoch-numbered copy-on-write
// snapshots: all immutable per-graph state (graph, oracles, build costs)
// lives in one snapshot behind an atomic pointer, edge-churn batches staged
// through Update are folded into the next snapshot by a background rebuild
// (update.go), and an atomic pointer swap publishes it — queries never
// block on updates and always see a consistent graph. Insertion-only
// batches take the write-efficient incremental path for every oracle that
// implements oracle.InsertionApplier; the rest are rebuilt.
//
// Batch dispatch is bounded: chunks run as tasks on the engine's Pool
// (shared across graphs when the engine belongs to a Registry), and the
// transport layer admits requests through Engine.Admit, which enforces the
// per-graph in-flight cap and counts rejections — the 429 surface.
//
// Package serve is transport-agnostic; the HTTP/JSON surface lives in
// http.go and is mounted by cmd/oracled.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/parallel"
)

// Kind names a query type served by the engine (an alias of the registry's
// kind type; the constants below re-export the built-ins).
type Kind = oracle.Kind

// The six built-in query kinds. Connected, Component and the spanning
// structure behind them come from conn.Oracle (Thm 4.2/4.4); Bridge,
// Articulation, Biconnected and TwoEdgeConnected from bicc.Oracle
// (Thm 5.1/5.3/6.1).
const (
	KindConnected        = oracle.KindConnected
	KindComponent        = oracle.KindComponent
	KindBridge           = oracle.KindBridge
	KindArticulation     = oracle.KindArticulation
	KindBiconnected      = oracle.KindBiconnected
	KindTwoEdgeConnected = oracle.KindTwoEdgeConnected
)

// Kinds lists every query kind registered when package serve initialized,
// in the registry's stable order (used for stats output and load-mix
// parsing). Factories registered later — e.g. from a plugin package whose
// init runs after serve's — are served by engines and reported by
// Engine.Kinds / /info, but do not appear here; call oracle.Kinds() for
// the live set.
var Kinds = oracle.Kinds()

// The per-query staleness contracts (Query.Staleness). Strict (the default)
// answers from the current snapshot epoch, lazily rebuilding a deferred
// oracle first if necessary; Bounded accepts an answer from the last-built
// epoch of a stale deferrable oracle — never a mixture of epochs — with
// that epoch reported in Result.Epoch. For kinds whose oracle is fresh (or
// not deferrable at all) the two contracts coincide.
const (
	StalenessStrict  = "strict"
	StalenessBounded = "bounded"
)

// Query is one oracle query. V is ignored by the single-vertex kinds
// (component, articulation). Staleness is "" or StalenessStrict for
// current-epoch answers (the default), or StalenessBounded to accept an
// answer from a deferred oracle's last-built epoch instead of waiting for
// its lazy rebuild.
type Query struct {
	Kind      Kind   `json:"kind"`
	U         int32  `json:"u"`
	V         int32  `json:"v,omitempty"`
	Staleness string `json:"staleness,omitempty"`
}

// Result is the answer to one Query. Exactly one of Bool/Label is set on
// success; Err is set (and the value fields nil) on a malformed query.
// Bool carries connected/bridge/articulation/biconnected answers, Label the
// component label. Component labels are canonical within one snapshot
// epoch; a full rebuild may renumber them.
//
// Results are read-only. Bool aliases one of two process-wide interned
// bool words shared by every boolean Result, and Label points into a
// batch-owned arena shared by the batch's Results — writing through either
// pointer silently corrupts other results, past and future. Dereference
// and copy the values; never assign through them.
type Result struct {
	Bool  *bool  `json:"bool,omitempty"`
	Label *int32 `json:"label,omitempty"`
	Err   string `json:"error,omitempty"`
	// Epoch is set only on bounded-staleness queries (Query.Staleness): the
	// epoch whose oracle state produced this answer — the snapshot epoch
	// when the serving oracle was fresh, or the last-built epoch of a stale
	// deferred oracle. (An answer at epoch 0 is omitted from the JSON form;
	// in-process callers read the field directly.)
	Epoch int64 `json:"epoch,omitempty"`
}

// ErrBusy is returned by Admit when the engine's in-flight request cap is
// reached; the HTTP layer maps it to 429 with a Retry-After header.
var ErrBusy = errors.New("serve: graph at admission capacity")

// Config configures an Engine.
type Config struct {
	// Omega is the asymmetric write cost ω; 0 selects asym.DefaultOmega.
	Omega int
	// K is the decomposition parameter; 0 selects the paper's k = ⌈√ω⌉.
	K int
	// Seed drives the decomposition's primary sampling (also for rebuilds).
	Seed uint64
	// Workers bounds the batch shard count; 0 selects GOMAXPROCS.
	Workers int
	// SymLimit, if nonzero, caps per-worker symmetric memory in words
	// (the paper's O(k log n) budget); 0 means report-only.
	SymLimit int
	// Pool is the worker pool batch chunks run on. Nil creates a private
	// pool sized to GOMAXPROCS; a Registry passes its shared pool so all
	// graphs draw from one bounded worker fleet.
	Pool *Pool
	// MaxInflight caps concurrently admitted requests (Admit); 0 means
	// unlimited. Requests beyond the cap are rejected with ErrBusy and
	// counted in Stats.Admission.Rejected.
	MaxInflight int
	// OnRebuild, if non-nil, is called after every rebuild attempt
	// (successful or not) with its record. Called outside the engine's
	// lock, from the rebuild goroutine; keep it fast and non-blocking.
	OnRebuild func(RebuildRecord)

	// LazyBoot skips the initial construction of Deferrable oracles: the
	// engine starts serving with those slots unbuilt (built-epoch -1) and
	// constructs them on the first query of one of their kinds. The
	// registry sets this for recovered graphs so a restart never pays
	// boot-time bicc rebuilds that no query may need.
	LazyBoot bool

	// RebaseEvery is the incremental patch-chain budget: an oracle whose
	// chain depth (oracle.Rebaser) reaches it is re-based — rebuilt fresh
	// over the current graph, collapsing its remap chain — instead of
	// patched again. Depth counts patch *generations*, each of which
	// copies the persisted remap table once: a pure insertion or deletion
	// batch is one generation, a mixed batch two (the insertion fold and
	// the deletion fold). 0 selects DefaultRebaseEvery; negative disables
	// automatic re-basing (chains grow until a batch forces a rebuild).
	RebaseEvery int

	// Persist, if non-nil, is the graph's durable log (persist.go): every
	// accepted update batch is appended to it before staging, and every
	// published epoch is committed to it. Nil disables persistence.
	Persist GraphPersister
	// InitialEpoch seeds the first snapshot's epoch — a recovered engine
	// resumes at (at least) the epoch its clients last saw acknowledged
	// instead of restarting at 0.
	InitialEpoch int64
	// InitialSeq seeds the update sequence counter — a recovered engine
	// numbers its next accepted batch InitialSeq+1 so WAL sequence numbers
	// stay monotonic across restarts.
	InitialSeq int64
	// InitialForest, when non-nil, is a recovered spanning forest (store
	// snapshot v2): after the oracles build, it is offered to every
	// oracle.ForestCarrier together with InitialChainDepth, so the
	// dynamic-update machinery resumes the persisted forest and re-base
	// schedule instead of starting a fresh chain. A forest that fails
	// validation against the recovered graph is dropped silently — the
	// oracle keeps its own freshly seeded forest.
	InitialForest [][2]int32
	// InitialChainDepth is the recovered remap-chain depth adopted with
	// InitialForest.
	InitialChainDepth int

	// GraphName is the value of the "graph" label on this engine's metric
	// series (metrics.go); "" selects "default". A Registry passes the
	// graph's registered name.
	GraphName string
	// Metrics is the obs registry the engine registers its instruments in;
	// nil creates a private registry (NewServer still serves it at
	// /metrics). Sharing one registry across engines is how a Registry
	// exposes the whole fleet on one scrape.
	Metrics *obs.Registry
}

// KindStats is the cumulative serving telemetry for one query kind.
type KindStats struct {
	Count  int64     `json:"count"`
	Errors int64     `json:"errors"`
	Cost   asym.Cost `json:"cost"`
}

// CacheStats is the telemetry of one query-path cache layer: the
// engine's epoch-keyed result table (resultcache.go) or the bicc oracle's
// cluster local-graph cache. The cluster counters are cumulative across
// snapshot swaps: retired snapshots' counters are folded into the engine
// at publish time and the live snapshot's are added on read.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// AdmissionStats is the per-graph admission-control telemetry.
type AdmissionStats struct {
	// MaxInflight is the configured cap (0 = unlimited).
	MaxInflight int `json:"max_inflight"`
	// Inflight counts currently admitted requests.
	Inflight int64 `json:"inflight"`
	// Rejected counts requests refused with ErrBusy over the engine's
	// lifetime.
	Rejected int64 `json:"rejected"`
	// QueueWait is the cumulative time this graph's batches spent waiting
	// for pool worker slots.
	QueueWait time.Duration `json:"queue_wait_ns"`
}

// Stats is the engine-wide snapshot, and its JSON encoding is the /stats
// document. Graph shape, build costs and component counts describe the
// current snapshot; query, rebuild, admission and pool telemetry is
// cumulative. Every cost object carries its derived work (asym.Cost's
// MarshalJSON).
//
// Duration units: every duration field in the document — the admission
// and pool queue_wait_ns, and rebuild duration_ns — is an integer count of
// NANOSECONDS (a time.Duration), flagged by the _ns suffix. The same
// quantities exported as histograms on GET /metrics
// (wec_pool_queue_wait_seconds, wec_rebuild_duration_seconds) are in
// SECONDS, per Prometheus base-unit convention. docs/observability.md
// carries the field-by-field mapping.
type Stats struct {
	GraphN        int `json:"graph_n"`
	GraphM        int `json:"graph_m"`
	Omega         int `json:"omega"`
	K             int `json:"k"`
	Workers       int `json:"workers"`
	NumComponents int `json:"num_components"`
	NumBCC        int `json:"num_bcc"`
	// BuildCosts has every registered factory's construction cost, keyed
	// by factory name ("conn", "bicc", plugged-in oracles).
	BuildCosts   map[string]asym.Cost `json:"build_costs"`
	Queries      map[string]KindStats `json:"queries"`
	TotalQueries int64                `json:"total_queries"` // sum of Queries[*].Count

	// Query-path cache telemetry: the engine's result memoization and the
	// bicc oracle's cluster local-graph cache. Both replay fill-time
	// charges on hits, so Queries' costs above are unaffected by either.
	ResultCache  CacheStats `json:"result_cache"`
	ClusterCache CacheStats `json:"cluster_cache"`

	// Admission control (this graph) and the worker pool (shared across
	// graphs when the engine belongs to a Registry).
	Admission AdmissionStats `json:"admission"`
	Pool      PoolStats      `json:"pool"`

	// Dynamic-update telemetry (update.go). IncrementalRebuilds counts
	// rebuilds whose summary strategy was a patch (patched-insert or
	// patched-delete); Strategies has the full per-oracle breakdown —
	// factory name -> strategy -> cumulative count — which is what the
	// churn harnesses assert on ("zero full conn rebuilds").
	Epoch               int64                       `json:"epoch"`
	PendingUpdates      int                         `json:"pending_updates"`
	TotalRebuilds       int64                       `json:"total_rebuilds"`
	IncrementalRebuilds int64                       `json:"incremental_rebuilds"`
	Strategies          map[string]map[string]int64 `json:"strategies,omitempty"`
	// ConnChainDepth is the conn oracle's current incremental patch-chain
	// depth (how far the snapshot is from its last full decomposition;
	// re-based to 0 every RebaseEvery generations).
	ConnChainDepth int             `json:"conn_chain_depth"`
	EdgesAdded     int64           `json:"edges_added"`
	EdgesRemoved   int64           `json:"edges_removed"`
	Rebuilds       []RebuildRecord `json:"rebuilds,omitempty"`

	// Deferred-rebuild telemetry. RebuildsAvoided counts publishes where a
	// Deferrable oracle's rebuild was skipped (marked stale) instead of run;
	// LazyRebuilds counts the on-demand rebuilds queries later forced, so
	// RebuildsAvoided - LazyRebuilds is the net rebuild work the lazy path
	// saved. OracleEpochs maps each factory to the epoch its serving oracle
	// was last actually (re)built at: equal to Epoch when fresh, lagging it
	// while stale, -1 when a lazily-booted oracle has never built. The gap
	// Epoch - OracleEpochs[f] is the oracle's epoch lag.
	RebuildsAvoided int64            `json:"rebuilds_avoided"`
	LazyRebuilds    int64            `json:"lazy_rebuilds"`
	OracleEpochs    map[string]int64 `json:"oracle_epochs,omitempty"`
}

// snapshot is the immutable per-epoch serving state. A snapshot is built
// completely before its pointer is published; after that nothing in it
// mutates, so readers never lock. oracles, costs, builtEpoch and lazy are
// parallel to the engine's factory list.
//
// The one deliberate exception to "nothing mutates" is behind lazy: a
// Deferrable oracle whose rebuild was skipped at publish time gets a
// *lazySlot (lazy.go) — a separate mutable single-flight cell the first
// matching query fills with the freshly built oracle. The snapshot's own
// fields (including the slot pointer itself) never change; oracles[i] then
// holds the carried-forward *stale* instance (nil if never built) and
// builtEpoch[i] the epoch that instance was built at, which is what the
// bounded-staleness answer path serves and reports.
//
//wec:immutable
type snapshot struct {
	epoch   int64
	g       *graph.Graph
	oracles []oracle.QueryOracle
	costs   []asym.Cost
	// builtEpoch[i] is the epoch oracles[i]'s state was built at (== epoch
	// for a fresh oracle, lagging while deferred, -1 for never-built). A
	// nil slice means every oracle is fresh.
	builtEpoch []int64
	// lazy[i], when non-nil, is factory i's deferred-rebuild cell for this
	// snapshot. A nil slice means no oracle is deferred.
	lazy []*lazySlot
}

// newSnap assembles a snapshot. Every snapshot — initial build and
// rebuild publishes — goes through here. builtEpoch nil means all-fresh;
// lazy nil means no deferred slots.
//
//wec:mutator the snapshot constructor: the only writes before publication
func newSnap(epoch int64, g *graph.Graph, os []oracle.QueryOracle, costs []asym.Cost, builtEpoch []int64, lazy []*lazySlot) *snapshot {
	return &snapshot{epoch: epoch, g: g, oracles: os, costs: costs, builtEpoch: builtEpoch, lazy: lazy}
}

// oracleAt returns the effective oracle of slot fi: the lazily built one
// when the slot's query-triggered rebuild has happened, else the (possibly
// stale, possibly nil) instance carried in oracles.
func (s *snapshot) oracleAt(fi int) oracle.QueryOracle {
	if s.lazy != nil && s.lazy[fi] != nil {
		if lb := s.lazy[fi].built.Load(); lb != nil {
			return lb.o
		}
	}
	return s.oracles[fi]
}

// costAt returns the construction cost of the effective oracle of slot fi
// (the lazy build's cost once it has run, else the carried build cost).
func (s *snapshot) costAt(fi int) asym.Cost {
	if s.lazy != nil && s.lazy[fi] != nil {
		if lb := s.lazy[fi].built.Load(); lb != nil {
			return lb.cost
		}
	}
	return s.costs[fi]
}

// builtEpochAt returns the epoch the effective oracle of slot fi was built
// at: the snapshot epoch once a lazy build has run (or when the slot was
// never deferred), the carried tag while stale, -1 when never built.
func (s *snapshot) builtEpochAt(fi int) int64 {
	if s.lazy != nil && s.lazy[fi] != nil && s.lazy[fi].built.Load() != nil {
		return s.epoch
	}
	if s.builtEpoch == nil {
		return s.epoch
	}
	return s.builtEpoch[fi]
}

// liveOracles calls f with every oracle instance of slot fi that can still
// be serving answers for this snapshot: the carried base instance (which
// bounded-staleness queries keep using even after a lazy build replaced it
// on the strict path) and the lazily built one. Cache-counter aggregation
// iterates these so no instance's telemetry goes dark before publish-time
// folding retires it.
func (s *snapshot) liveOracles(fi int, f func(oracle.QueryOracle)) {
	if o := s.oracles[fi]; o != nil {
		f(o)
	}
	if s.lazy != nil && s.lazy[fi] != nil {
		if lb := s.lazy[fi].built.Load(); lb != nil {
			f(lb.o)
		}
	}
}

// counts extracts the structure counters from whichever snapshot oracles
// advertise them (shared by /stats and /info). A lazily-deferred oracle
// that has never built contributes nothing (NumBCC reads 0 until the first
// biconnectivity query forces its build).
func (s *snapshot) counts() (components, bccs int) {
	for fi := range s.oracles {
		o := s.oracleAt(fi)
		if o == nil {
			continue
		}
		if cc, ok := o.(oracle.ComponentCounter); ok {
			components = cc.NumComponents()
		}
		if bc, ok := o.(oracle.BCCCounter); ok {
			bccs = bc.NumBCC()
		}
	}
	return components, bccs
}

// kindRef locates one kind's aggregate slot and owning oracle.
type kindRef struct {
	agg int // index into Engine.specs / Engine.kinds
	fac int // index into Engine.factories / snapshot.oracles
}

// Engine is a thread-safe batched query service over one evolving graph.
// The current snapshot (graph + oracles) is immutable and reached through
// an atomic pointer; all per-query mutable state (meters, symmetric
// trackers, search scratch) is worker-local, so any number of goroutines
// may call Do / Query / Update concurrently.
type Engine struct {
	omega       int
	k           int
	workers     int
	sym         int
	seed        uint64
	rebaseEvery int // resolved patch-chain budget (0 = re-basing disabled)
	onRebuild   func(RebuildRecord)
	persist     GraphPersister

	// Oracle dispatch, fixed at New from the process-wide registry.
	factories []oracle.Factory
	specs     []oracle.Spec
	byKind    map[oracle.Kind]kindRef

	// Worker pool + admission control.
	pool        *Pool
	maxInflight int64
	inflight    atomic.Int64
	rejected    atomic.Int64
	queueWaitNs atomic.Int64

	snap atomic.Pointer[snapshot]

	// wpool recycles worker state (per-kind meters, symmetric tracker,
	// per-factory query scratch) across batch chunks, so steady-state
	// serving allocates nothing per chunk.
	wpool sync.Pool

	// rcache is the epoch-keyed hot-pair result cache of the query path
	// (resultcache.go); the atomics below are its cumulative telemetry
	// plus the retired snapshots' cluster-cache counters (the live
	// snapshot's are read on demand, see clusterCacheCounts).
	rcache   *resultCache
	rcHits   atomic.Int64
	rcMisses atomic.Int64
	rcEvicts atomic.Int64
	ccHits   atomic.Int64
	ccMisses atomic.Int64
	ccEvicts atomic.Int64

	// Per-kind aggregates. The meters are shared long-lived accumulators
	// (atomic internally); workers merge into them only at shard
	// completion, so the per-query hot path touches worker-local state
	// only.
	kinds []kindAgg
	disp  *asym.Meter // build/rebuild root-context overhead, not per-kind

	// Dynamic-update state (update.go). mu guards everything below plus
	// the snap.Store in the rebuild loop; snap.Load never locks.
	mu        sync.Mutex
	cond      *sync.Cond
	loopOnce  sync.Once
	closed    bool
	pending   []*updateBatch
	delta     map[[2]int32]int // staged-but-unpublished edge multiplicity delta
	seq       int64            // update batches staged, ever
	pubSeq    int64            // highest seq folded into the published snapshot
	unapplied int              // staged batches not yet folded into a snapshot
	history   []RebuildRecord  // most recent rebuilds, newest last

	nRebuilds    int64
	nIncremental int64
	stratCounts  map[string]map[string]int64 // factory -> strategy -> rebuilds
	edgesAdded   int64
	edgesRemoved int64

	// rebuildsAvoided counts publishes that skipped a Deferrable oracle's
	// rebuild (lazy.go). An atomic because it is read outside mu. The
	// on-demand builds queries later force are counted once, by the lazy
	// bucket of the rebuild-duration histogram (metrics.go).
	rebuildsAvoided atomic.Int64

	// met holds the engine's pre-resolved metric handles (metrics.go).
	// Assigned once in New after the first snapshot publishes, so the
	// scrape-time callbacks registered with it never see a nil snapshot.
	met *engineMetrics

	// testRebuildErr, when non-nil, lets white-box tests inject a rebuild
	// failure (standing in for a plugged-in oracle whose rebuild errors —
	// the path that must surface as ErrRebuildFailed, not a 400).
	testRebuildErr func(next *graph.Graph) error
}

type kindAgg struct {
	count  atomic.Int64
	errors atomic.Int64
	meter  *asym.Meter
}

// New builds one oracle per registered factory over g and returns a ready
// engine. The constructions run in parallel under one parallel.Ctx, each
// charging its own meter, so the build parallelizes and the per-oracle
// construction costs stay separable in /stats.
func New(g *graph.Graph, cfg Config) *Engine {
	omega := cfg.Omega
	if omega <= 0 {
		omega = asym.DefaultOmega
	}
	k := cfg.K
	if k <= 0 {
		k = conn.DefaultK(omega)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := cfg.Pool
	if pool == nil {
		pool = NewPool(0)
	}
	rebaseEvery := cfg.RebaseEvery
	switch {
	case rebaseEvery == 0:
		rebaseEvery = DefaultRebaseEvery
	case rebaseEvery < 0:
		rebaseEvery = 0
	}
	e := &Engine{
		omega:       omega,
		k:           k,
		workers:     workers,
		sym:         cfg.SymLimit,
		seed:        cfg.Seed,
		rebaseEvery: rebaseEvery,
		onRebuild:   cfg.OnRebuild,
		persist:     cfg.Persist,
		seq:         cfg.InitialSeq,
		pubSeq:      cfg.InitialSeq,
		pool:        pool,
		maxInflight: int64(cfg.MaxInflight),
		rcache:      newResultCache(),
		disp:        asym.NewMeter(omega),
		byKind:      map[oracle.Kind]kindRef{},
		delta:       map[[2]int32]int{},
		stratCounts: map[string]map[string]int64{},
	}
	e.cond = sync.NewCond(&e.mu)
	e.factories = oracle.Factories()
	for fi, f := range e.factories {
		for _, s := range f.Specs {
			e.byKind[s.Kind] = kindRef{agg: len(e.specs), fac: fi}
			e.specs = append(e.specs, s)
		}
	}
	e.kinds = make([]kindAgg, len(e.specs))
	for i := range e.kinds {
		e.kinds[i].meter = asym.NewMeter(omega)
	}
	var skip []bool
	if cfg.LazyBoot {
		for fi, f := range e.factories {
			if f.Deferrable {
				if skip == nil {
					skip = make([]bool, len(e.factories))
				}
				skip[fi] = true
			}
		}
	}
	os, costs := e.buildOracles(g, skip)
	if len(cfg.InitialForest) > 0 || cfg.InitialChainDepth > 0 {
		// Recovery: offer the persisted forest + chain depth to every
		// forest-carrying oracle. A forest the oracle rejects (stale
		// against the recovered graph) is dropped — the fresh seed from
		// the build stands, which is always correct, just a new chain.
		for i, o := range os {
			if fc, ok := o.(oracle.ForestCarrier); ok {
				if adopted, err := fc.AdoptForest(cfg.InitialForest, cfg.InitialChainDepth); err == nil {
					os[i] = adopted
				}
			}
		}
	}
	var builtEpoch []int64
	var lazySlots []*lazySlot
	if skip != nil {
		builtEpoch = make([]int64, len(os))
		lazySlots = make([]*lazySlot, len(os))
		for i := range os {
			builtEpoch[i] = cfg.InitialEpoch
			if skip[i] {
				builtEpoch[i] = -1 // never built; first matching query builds
				lazySlots[i] = &lazySlot{}
			}
		}
	}
	e.snap.Store(newSnap(cfg.InitialEpoch, g, os, costs, builtEpoch, lazySlots))
	e.met = newEngineMetrics(cfg.Metrics, cfg.GraphName, e)
	return e
}

// buildOracles constructs every factory's oracle over g in parallel,
// returning them with their separable construction costs. Used for the
// initial snapshot and for full rebuilds. A non-nil skip masks factories
// to leave unbuilt (LazyBoot's deferred slots): their oracle stays nil
// with a zero cost.
//
// A panicking Build is re-raised on the calling goroutine, named after its
// factory, once every build has ended, and reaches the caller's recover
// (the Registry parks the graph at StateFailed). A panic inside a build's
// own parallel passes gets there too: parallel.Ctx re-raises a forked
// branch's panic at its join.
func (e *Engine) buildOracles(g *graph.Graph, skip []bool) ([]oracle.QueryOracle, []asym.Cost) {
	os := make([]oracle.QueryOracle, len(e.factories))
	ms := make([]*asym.Meter, len(e.factories))
	for i := range ms {
		ms[i] = asym.NewMeter(e.omega)
	}
	panics := make([]error, len(e.factories))
	root := parallel.NewCtx(e.disp, nil)
	root.SetGrain(1)
	root.For(0, len(e.factories), func(_ *parallel.Ctx, i int) {
		defer func() {
			if r := recover(); r != nil {
				panics[i] = fmt.Errorf("oracle %q build panicked: %v", e.factories[i].Name, r)
			}
		}()
		if skip != nil && skip[i] {
			return
		}
		c := parallel.NewCtx(ms[i], asym.NewSymTracker(e.sym))
		os[i] = e.factories[i].Build(c, graph.View{G: g, M: ms[i]}, e.k, e.seed)
	})
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	costs := make([]asym.Cost, len(ms))
	for i, m := range ms {
		costs[i] = m.Snapshot()
	}
	return os, costs
}

// buildCosts returns every factory's snapshot build cost keyed by factory
// name. For a deferred slot this is the cost of whatever build produced the
// effective oracle — the carried one while stale, the lazy build's once it
// has run, zero while never built.
func (e *Engine) buildCosts(s *snapshot) map[string]asym.Cost {
	out := make(map[string]asym.Cost, len(e.factories))
	for fi, f := range e.factories {
		out[f.Name] = s.costAt(fi)
	}
	return out
}

// oracleEpochs maps each factory to the epoch its effective oracle was
// last actually built at (-1 for a never-built deferred slot) — the
// per-oracle staleness surface of /stats, /info and the oracle_epoch
// metric gauge.
func (e *Engine) oracleEpochs(s *snapshot) map[string]int64 {
	out := make(map[string]int64, len(e.factories))
	for fi, f := range e.factories {
		out[f.Name] = s.builtEpochAt(fi)
	}
	return out
}

// Graph returns the currently served graph (the latest snapshot's).
func (e *Engine) Graph() *graph.Graph { return e.snap.Load().g }

// Epoch returns the current snapshot epoch (Config.InitialEpoch for the
// initial build — 0 unless recovered; +1 per published rebuild).
func (e *Engine) Epoch() int64 { return e.snap.Load().epoch }

// LastSeq returns the sequence number of the most recently accepted update
// batch (Config.InitialSeq until the first accept).
func (e *Engine) LastSeq() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// ConnDyn returns the current snapshot's complete dynamic conn state — the
// label remap table, the maintained spanning forest, and the incremental
// patch-chain depth — everything the durable store writes into a v2
// snapshot so a restarted daemon resumes the update machinery where the
// fleet left off.
func (e *Engine) ConnDyn() (remap map[int32]int32, forest [][2]int32, chainDepth int) {
	return connDynOf(e.snap.Load())
}

// PersistNow forces the durable store (when configured) to write a fresh
// snapshot of the currently *published* state — the graceful-shutdown
// fold, so the next boot loads one file instead of replaying the WAL.
// The watermark is the highest sequence number actually folded into the
// published snapshot: staged-but-unpublished batches stay in the WAL and
// replay on the next boot. No-op without a persister.
func (e *Engine) PersistNow() error {
	if e.persist == nil {
		return nil
	}
	e.mu.Lock()
	sn := e.snap.Load()
	seq := e.pubSeq
	e.mu.Unlock()
	remap, forest, depth := connDynOf(sn)
	return e.persist.SaveSnapshot(sn.epoch, seq, sn.g, remap, forest, depth)
}

// Omega returns the engine's write cost ω.
func (e *Engine) Omega() int { return e.omega }

// K returns the decomposition parameter.
func (e *Engine) K() int { return e.k }

// Pool returns the worker pool this engine draws query workers from.
func (e *Engine) Pool() *Pool { return e.pool }

// Kinds returns the query kinds this engine serves (the kinds registered
// at its construction), in dispatch order.
func (e *Engine) Kinds() []Kind {
	ks := make([]Kind, len(e.specs))
	for i, s := range e.specs {
		ks[i] = s.Kind
	}
	return ks
}

// Inflight returns the number of currently admitted requests.
func (e *Engine) Inflight() int64 { return e.inflight.Load() }

// MetricsRegistry returns the obs registry this engine's instruments are
// registered in (Config.Metrics, or the private registry created when that
// was nil). NewServer serves it at GET /metrics.
func (e *Engine) MetricsRegistry() *obs.Registry { return e.met.reg }

// clusterCacheCounts returns the cumulative oracle-side cluster-cache
// counters: the retired snapshots' totals (folded into the engine atomics
// at publish time) plus every instance still live in the current snapshot
// (a deferred slot can have two: the stale base that bounded queries use
// and the lazily built replacement). Shared by Stats and the scrape-time
// cache metrics. The atomics and the snapshot are read together under mu,
// the lock a publish folds and swaps under — otherwise a fold landing
// between the two loads would drop (or, in the other order, double-count)
// the retired instance's counts, and the cumulative counters could go
// backwards between reads.
func (e *Engine) clusterCacheCounts() (hits, misses, evicts int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	hits, misses, evicts = e.ccHits.Load(), e.ccMisses.Load(), e.ccEvicts.Load()
	sn := e.snap.Load()
	for fi := range sn.oracles {
		sn.liveOracles(fi, func(o oracle.QueryOracle) {
			if cs, ok := o.(oracle.CacheStatser); ok {
				h, ms, ev := cs.CacheStats()
				hits += h
				misses += ms
				evicts += ev
			}
		})
	}
	return hits, misses, evicts
}

// Conn exposes the current snapshot's connectivity oracle (read-only use);
// nil if no conn factory is registered.
func (e *Engine) Conn() *conn.Oracle {
	sn := e.snap.Load()
	for fi := range sn.oracles {
		if a, ok := sn.oracleAt(fi).(oracle.ConnAdapter); ok {
			return a.O
		}
	}
	return nil
}

// Bicc exposes the current snapshot's biconnectivity oracle (read-only
// use); nil if no bicc factory is registered — or registered but deferred
// and not yet lazily built.
func (e *Engine) Bicc() *bicc.Oracle {
	sn := e.snap.Load()
	for fi := range sn.oracles {
		if a, ok := sn.oracleAt(fi).(oracle.BiccAdapter); ok {
			return a.O
		}
	}
	return nil
}

// Admit reserves one in-flight request slot, returning the release func.
// When the engine's MaxInflight cap is reached it rejects with ErrBusy and
// counts the rejection — the transport layer's 429. With MaxInflight 0
// admission always succeeds (the slot is still counted, so /stats reports
// live in-flight depth).
func (e *Engine) Admit() (release func(), err error) {
	for {
		cur := e.inflight.Load()
		if e.maxInflight > 0 && cur >= e.maxInflight {
			e.rejected.Add(1)
			return nil, ErrBusy
		}
		if e.inflight.CompareAndSwap(cur, cur+1) {
			return func() { e.inflight.Add(-1) }, nil
		}
	}
}

// worker holds one shard's private cost-model state: a meter per query
// kind, a symmetric-memory tracker, and one reusable query scratch per
// oracle factory. Nothing here is shared until mergeInto.
type worker struct {
	meters []*asym.Meter
	counts []int64
	errs   []int64
	sym    *asym.SymTracker
	// scratch[fi] is the query scratch of factory fi (nil while the slot
	// has no built oracle, or when its NewScratch returns nil). A scratch
	// depends only on the oracle's type, so a pooled worker's scratch
	// stays valid across snapshot swaps.
	scratch []any
	// fillSym isolates the symmetric peak of one cache-filling query so it
	// can be recorded for replay: it is Reset before each fill, and the
	// observed peak is folded into sym (every query returns its footprint
	// to zero, so the worker's cumulative high-water is the max of
	// per-query peaks either way).
	fillSym *asym.SymTracker
}

func (e *Engine) newWorker() *worker {
	w := &worker{
		meters:  make([]*asym.Meter, len(e.specs)),
		counts:  make([]int64, len(e.specs)),
		errs:    make([]int64, len(e.specs)),
		sym:     asym.NewSymTracker(e.sym),
		fillSym: asym.NewSymTracker(0),
	}
	for i := range w.meters {
		w.meters[i] = asym.NewMeter(e.omega)
	}
	return w
}

// getWorker takes a worker from the engine's pool (or builds one),
// equipping it with per-factory query scratch on first use.
func (e *Engine) getWorker(s *snapshot) *worker {
	w, _ := e.wpool.Get().(*worker)
	if w == nil {
		w = e.newWorker()
	}
	if w.scratch == nil {
		w.scratch = make([]any, len(e.factories))
		for i, o := range s.oracles {
			if o != nil {
				w.scratch[i] = o.NewScratch()
			}
		}
	}
	return w
}

// putWorker resets the worker's accumulators (after mergeInto) and returns
// it to the pool. The scratch is deliberately kept — its grown buffers are
// the allocation win.
func (e *Engine) putWorker(w *worker) {
	for i := range w.meters {
		w.meters[i].Reset()
		w.counts[i] = 0
		w.errs[i] = 0
	}
	w.sym.Reset()
	e.wpool.Put(w)
}

// mergeInto folds the worker's per-kind totals into the engine aggregates.
func (w *worker) mergeInto(e *Engine) {
	for i := range e.kinds {
		if w.counts[i] == 0 && w.errs[i] == 0 {
			continue
		}
		e.kinds[i].meter.Merge(w.meters[i].Snapshot())
		e.kinds[i].count.Add(w.counts[i])
		e.kinds[i].errors.Add(w.errs[i])
	}
}

// replay charges a memoized answer's recorded meter cost and symmetric
// peak onto the worker's state, making a cache hit telemetry-identical to
// the query that filled the entry.
//
//wec:noalloc
func (w *worker) replay(m *asym.Meter, v rcVal) oracle.AnswerVal {
	m.Merge(v.cost)
	w.sym.Fold(v.peak)
	return v.av
}

// Shared Result.Bool targets: boolean answers point at one of these two
// immutable words instead of boxing a fresh bool per query. Results are
// read-only after Do returns, so sharing is safe.
var (
	boolTrueVal  = true
	boolFalseVal = false
	boolTrue     = &boolTrueVal
	boolFalse    = &boolFalseVal
)

// answer runs one query through dispatch, observing its wall-clock latency
// in the per-(graph, kind) histogram. The observation is pre-resolved
// atomics only (obs.Histogram.Observe allocates nothing), so this wrapper
// is as zero-alloc as the dispatch underneath it — the alloc_test.go gates
// hold with metrics enabled. Unknown-kind errors (agg < 0) have no kind
// series to observe into and are skipped; malformed-but-known-kind queries
// are observed (their error counts are exported separately).
//
//wec:noalloc
func (e *Engine) answer(s *snapshot, w *worker, q Query, labels *[]int32) Result {
	start := time.Now()
	res, agg := e.dispatch(s, w, q, labels)
	if agg >= 0 {
		e.met.qdur[agg].Observe(time.Since(start).Seconds())
	}
	return res
}

// dispatch runs one query against the snapshot's oracles using the worker's
// private meters, returning the result and the kind's aggregate index (-1
// for an unknown kind). Dispatch is by registered kind: the spec supplies
// the arity for validation, the kindRef the owning oracle. The single
// m.Write(1) charges the store of the answer into the batch's result slice
// (the output-sized write cost of the model); the oracles themselves write
// nothing during queries.
//
// Results are built from shared bool words and the caller-owned label
// arena labels instead of boxing a value per query. The arena must have
// capacity for one label per remaining query in the caller's chunk —
// appends then never reallocate, so previously returned Result.Label
// pointers stay valid. If a caller undersizes the arena, the overflow
// labels are boxed individually (an allocation, not corruption) rather
// than appended through a reallocation that would dangle earlier
// Result.Label pointers.
//
//wec:noalloc
func (e *Engine) dispatch(s *snapshot, w *worker, q Query, labels *[]int32) (Result, int) {
	ref, ok := e.byKind[q.Kind]
	if !ok {
		// Unknown kinds are not attributable to a per-kind meter; count
		// them under no kind and report the error.
		return Result{Err: fmt.Sprintf("unknown query kind %q", q.Kind)}, -1 //wec:alloc malformed-query error path, not the hot answer path
	}
	n := int32(s.g.N())
	if q.U < 0 || q.U >= n || (e.specs[ref.agg].Pairwise && (q.V < 0 || q.V >= n)) {
		w.errs[ref.agg]++
		return Result{Err: fmt.Sprintf("vertex out of range [0,%d)", n)}, ref.agg //wec:alloc malformed-query error path, not the hot answer path
	}
	bounded := false
	switch q.Staleness {
	case "", StalenessStrict:
	case StalenessBounded:
		bounded = true
	default:
		w.errs[ref.agg]++
		return Result{Err: fmt.Sprintf("unknown staleness %q", q.Staleness)}, ref.agg //wec:alloc malformed-query error path, not the hot answer path
	}
	// Resolve the serving oracle: one nil check for fresh slots; for a
	// deferred slot, the lazily built instance, the stale one (bounded
	// queries only), or the single-flight on-demand build (lazy.go). ep is
	// the epoch the resolved oracle's state was built at — it keys the
	// result table, so strict and bounded answers, and answers from
	// different build generations, never share an entry.
	qo, ep, err := e.resolveOracle(s, ref.fac, bounded)
	if err != nil {
		w.errs[ref.agg]++
		return Result{Err: err.Error()}, ref.agg //wec:alloc lazy-build failure path, not the hot answer path
	}
	m := w.meters[ref.agg]
	if w.scratch[ref.fac] == nil {
		// A lazily-booted slot had no oracle to take a scratch from when
		// this worker was equipped; fill it on first contact.
		w.scratch[ref.fac] = qo.NewScratch() //wec:alloc one-time per-worker scratch fill after a lazy build
	}
	// Result memoization: the engine's epoch-keyed shared table. Hits
	// replay the memoized query's recorded cost and symmetric peak, so
	// per-kind telemetry is identical to recomputing; misses compute,
	// record, and publish. Errors are never memoized.
	key := rcKey{agg: int32(ref.agg), u: q.U, v: q.V}
	var av oracle.AnswerVal
	if hit, ok := e.rcache.get(ep, key); ok {
		e.rcHits.Add(1)
		av = w.replay(m, hit)
	} else {
		e.rcMisses.Add(1)
		before := m.Snapshot()
		w.fillSym.Reset()
		av, err = qo.Answer(m, w.fillSym, oracle.Query{Kind: q.Kind, U: q.U, V: q.V}, w.scratch[ref.fac])
		// Fold the fill's isolated peak into the worker tracker: queries
		// return their footprint to zero, so the worker's high-water is the
		// max of per-query peaks either way.
		w.sym.Fold(w.fillSym.HighWater())
		if err != nil {
			w.errs[ref.agg]++
			return Result{Err: err.Error()}, ref.agg
		}
		val := rcVal{av: av, cost: m.Snapshot().Sub(before), peak: w.fillSym.HighWater()}
		if e.rcache.put(ep, key, val) {
			e.rcEvicts.Add(1)
		}
	}
	m.Write(1) // store the answer (output-sized cost)
	w.counts[ref.agg]++
	var res Result
	switch {
	case av.IsBool && av.Bool:
		res = Result{Bool: boolTrue}
	case av.IsBool:
		res = Result{Bool: boolFalse}
	case len(*labels) < cap(*labels):
		*labels = append(*labels, av.Label)
		res = Result{Label: &(*labels)[len(*labels)-1]}
	default:
		// Undersized arena (a caller bug — both call sites size it to one
		// slot per query): box this label rather than let append
		// reallocate, which would silently dangle every previously returned
		// Result.Label into the old array.
		lbl := av.Label
		res = Result{Label: &lbl} //wec:alloc arena-overflow fallback; both call sites size the arena to avoid it
	}
	if bounded {
		res.Epoch = ep
	}
	return res, ref.agg
}

// Do answers a batch of queries. The snapshot pointer is loaded once, so
// every query in the batch is answered against the same epoch even if an
// update publishes mid-batch. The slice is split into up to Workers
// contiguous chunks which run as tasks on the engine's worker pool — the
// bound shared across all graphs of a Registry — each on its own worker
// state. Do is safe to call from many goroutines at once; time spent
// waiting for pool slots is recorded in the admission telemetry.
func (e *Engine) Do(queries []Query) []Result {
	out, _ := e.DoWait(queries)
	return out
}

// DoWait is Do returning also the time this batch spent waiting for pool
// worker slots — the HTTP layer splits a traced batch request into its
// pool_queue and answer spans with it.
func (e *Engine) DoWait(queries []Query) ([]Result, time.Duration) {
	out := make([]Result, len(queries))
	if len(queries) == 0 {
		return out, 0
	}
	e.met.batchSize.Observe(float64(len(queries)))
	s := e.snap.Load()
	chunk := (len(queries) + e.workers - 1) / e.workers
	nchunks := (len(queries) + chunk - 1) / chunk
	wait := e.pool.Run(nchunks, func(ci int) {
		lo := ci * chunk
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		w := e.getWorker(s)
		// One label arena per chunk, sized so appends never reallocate
		// (at most one label per query) — Result.Label pointers into it
		// stay valid for the caller.
		labels := make([]int32, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out[i] = e.answer(s, w, queries[i], &labels)
		}
		w.mergeInto(e)
		e.putWorker(w)
	})
	e.queueWaitNs.Add(int64(wait))
	e.met.queueWait.Observe(wait.Seconds())
	return out, wait
}

// Query answers a single query (a one-element batch without the pool
// round-trip).
func (e *Engine) Query(q Query) Result {
	s := e.snap.Load()
	w := e.getWorker(s)
	labels := make([]int32, 0, 1)
	res := e.answer(s, w, q, &labels)
	w.mergeInto(e)
	e.putWorker(w)
	return res
}

// Stats snapshots the engine's cumulative serving telemetry. The snapshot
// pointer is read under the update lock (publishes also happen under it),
// so the reported epoch is consistent with the rebuild counters and
// history.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	sn := e.snap.Load()
	s := Stats{
		GraphN:     sn.g.N(),
		GraphM:     sn.g.M(),
		Omega:      e.omega,
		K:          e.k,
		Workers:    e.workers,
		BuildCosts: e.buildCosts(sn),
		Queries:    make(map[string]KindStats, len(e.specs)),
		Epoch:      sn.epoch,
	}
	s.PendingUpdates = e.unapplied
	s.TotalRebuilds = e.nRebuilds
	s.IncrementalRebuilds = e.nIncremental
	if len(e.stratCounts) > 0 {
		s.Strategies = make(map[string]map[string]int64, len(e.stratCounts))
		for name, m := range e.stratCounts {
			inner := make(map[string]int64, len(m))
			for strat, c := range m {
				inner[strat] = c
			}
			s.Strategies[name] = inner
		}
	}
	s.EdgesAdded = e.edgesAdded
	s.EdgesRemoved = e.edgesRemoved
	s.Rebuilds = append([]RebuildRecord(nil), e.history...)
	e.mu.Unlock()
	s.RebuildsAvoided = e.rebuildsAvoided.Load()
	s.LazyRebuilds = e.met.rebuildDur[StrategyLazy].Count()
	s.OracleEpochs = e.oracleEpochs(sn)
	s.NumComponents, s.NumBCC = sn.counts()
	s.ConnChainDepth = connChainDepthOf(sn)
	for i, spec := range e.specs {
		ks := KindStats{
			Count:  e.kinds[i].count.Load(),
			Errors: e.kinds[i].errors.Load(),
			Cost:   e.kinds[i].meter.Snapshot(),
		}
		s.Queries[string(spec.Kind)] = ks
		s.TotalQueries += ks.Count
	}
	s.ResultCache = CacheStats{
		Hits:      e.rcHits.Load(),
		Misses:    e.rcMisses.Load(),
		Evictions: e.rcEvicts.Load(),
	}
	s.ClusterCache.Hits, s.ClusterCache.Misses, s.ClusterCache.Evictions = e.clusterCacheCounts()
	s.Admission = AdmissionStats{
		MaxInflight: int(e.maxInflight),
		Inflight:    e.inflight.Load(),
		Rejected:    e.rejected.Load(),
		QueueWait:   time.Duration(e.queueWaitNs.Load()),
	}
	s.Pool = e.pool.Stats()
	return s
}
