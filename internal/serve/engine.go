// Package serve turns the paper's query oracles into a long-lived,
// concurrent, multi-tenant serving layer. An Engine serves one evolving
// graph; a Registry (registry.go) manages many named engines behind one
// HTTP surface, all drawing query workers from one shared
// admission-controlled Pool (pool.go).
//
// The engine holds the paper's two query structures directly: the
// connectivity oracle of Theorem 4.4 (conn.Oracle) answers the connected
// and component kinds, the biconnectivity oracle of Theorem 5.3
// (bicc.Oracle) the other four, and dispatch is one switch over the six
// fixed kinds.
//
// The design follows the oracles' own cost discipline:
//
//   - Construction is charged to per-oracle meters, so /stats can report
//     the paper's construction write bounds as live telemetry. Both oracles
//     sit on one implicit decomposition per graph version, charged to conn;
//     the rest of the two builds runs in parallel.
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
// block on updates and always see a consistent graph. The conn oracle
// patches most batches incrementally; bicc absorbs provable no-ops and
// otherwise rebuilds lazily, at the first biconnectivity query.
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
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// Kind names a query type served by the engine.
type Kind string

// The six query kinds. Connected and Component are served by the
// Theorem 4.4 connectivity oracle (conn.Oracle); Bridge, Articulation,
// Biconnected and TwoEdgeConnected by the Theorem 5.3 biconnectivity
// oracle (bicc.Oracle). 2-edge connectivity is the §5.3 OneEdgeConnected
// query: no single edge removal separates the pair.
const (
	KindConnected        Kind = "connected"    // u, v — same component?
	KindComponent        Kind = "component"    // u — canonical component label
	KindBridge           Kind = "bridge"       // u, v — is edge {u,v} a bridge?
	KindArticulation     Kind = "articulation" // u — is u a cut vertex?
	KindBiconnected      Kind = "biconnected"  // u, v — biconnected pair?
	KindTwoEdgeConnected Kind = "2ecc"         // u, v — same 2-edge-connected component?
)

// Kinds lists every query kind in its stable order: the connectivity kinds
// first, then the biconnectivity kinds (the order of stats output, /info
// and load-mix parsing). Callers must not modify it.
var Kinds = []Kind{KindConnected, KindComponent, KindBridge, KindArticulation, KindBiconnected, KindTwoEdgeConnected}

// Aggregate slots of the kinds, in Kinds order: the index of a kind's
// per-kind meter, counters and latency histogram. The conn kinds come
// before aggBridge, the bicc kinds from it on.
const (
	aggConnected = iota
	aggComponent
	aggBridge
	aggArticulation
	aggBiconnected
	aggTwoEdgeConnected
	numKinds
)

// kindIndex resolves a query kind to its aggregate slot; -1 for a kind the
// engine does not serve.
//
//wec:noalloc
func kindIndex(k Kind) int {
	switch k {
	case KindConnected:
		return aggConnected
	case KindComponent:
		return aggComponent
	case KindBridge:
		return aggBridge
	case KindArticulation:
		return aggArticulation
	case KindBiconnected:
		return aggBiconnected
	case KindTwoEdgeConnected:
		return aggTwoEdgeConnected
	}
	return -1
}

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

	// LazyBoot skips the initial bicc build: the engine starts serving with
	// bicc unbuilt (built-epoch -1) and constructs it on the first
	// biconnectivity query. The registry sets this for recovered graphs so
	// a restart never pays boot-time bicc rebuilds that no query may need.
	LazyBoot bool

	// RebaseEvery is the incremental patch-chain budget: once the conn
	// oracle's chain depth reaches it, the oracle is re-based — rebuilt
	// fresh over the current graph, collapsing its remap chain — instead of
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
	// snapshot v2): after the oracles build, the conn oracle adopts it
	// together with InitialChainDepth, so the dynamic-update machinery
	// resumes the persisted forest and re-base schedule instead of
	// starting a fresh chain. A forest that fails validation against the
	// recovered graph is dropped silently — the oracle keeps its own
	// freshly seeded forest.
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
	// for pool worker slots. It is the wec_pool_queue_wait_seconds
	// histogram's sum, a float64 of seconds, rounded to the nearest
	// nanosecond: each observed batch may round the running sum by one
	// part in 2^53, so the relative error is at most batches × 2^-53.
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
	// BuildCosts has each oracle's construction cost, keyed "conn" and
	// "bicc". The decomposition the two share is in conn's; bicc's
	// includes a decomposition only when its build made its own.
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
	// rebuilds whose conn strategy was a patch (patched-insert or
	// patched-delete); Strategies has the full per-oracle breakdown —
	// oracle name -> strategy -> cumulative count — which is what the
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

	// Deferred-rebuild telemetry. RebuildsAvoided counts publishes where the
	// bicc rebuild was skipped (deferred or absorbed as a no-op) instead of
	// run — every publish, as bicc never rebuilds on the publish path;
	// LazyRebuilds counts the on-demand rebuilds queries later forced (the
	// lazy bucket of the rebuild-duration histogram), so RebuildsAvoided -
	// LazyRebuilds is the net rebuild work the lazy path saved. OracleEpochs maps each oracle to the epoch its serving
	// instance was last actually (re)built at: equal to Epoch when fresh,
	// lagging it while stale, -1 when a lazily-booted oracle has never
	// built. The gap Epoch - OracleEpochs[o] is the oracle's epoch lag.
	RebuildsAvoided int64            `json:"rebuilds_avoided"`
	LazyRebuilds    int64            `json:"lazy_rebuilds"`
	OracleEpochs    map[string]int64 `json:"oracle_epochs,omitempty"`
}

// snapshot is the immutable per-epoch serving state. A snapshot is built
// completely before its pointer is published; after that nothing in it
// mutates, so readers never lock.
//
// The conn oracle is always fresh. bicc is the one oracle whose rebuild is
// deferred: when an update batch is not a provable bicc no-op, the publish
// carries the previous bicc instance forward as *stale* and plants a
// *lazySlot (lazy.go) — a separate mutable single-flight cell the first
// biconnectivity query fills with a freshly built oracle. The snapshot's own
// fields (including the slot pointer itself) never change; bicc then holds
// the carried-forward stale instance (a nil oracle if never built) and
// biccEpoch the epoch it was built at, which is what the bounded-staleness
// answer path serves and reports.
//
//wec:immutable
type snapshot struct {
	epoch    int64
	g        *graph.Graph
	conn     *conn.Oracle
	connCost asym.Cost
	// connDEpoch is the epoch whose graph conn's decomposition decomposes:
	// patched conn rungs keep the decomposition, so it lags epoch along a
	// patch chain.
	connDEpoch int64
	bicc       biccBuilt
	// biccEpoch is the epoch bicc's state was built at: == epoch when
	// fresh, lagging while deferred, -1 when never built.
	biccEpoch int64
	// biccLazy, when non-nil, is bicc's deferred-rebuild cell for this
	// snapshot.
	biccLazy *lazySlot
}

// biccBuilt is one biconnectivity oracle together with the cluster cache
// that lives and dies with it, and the cost of producing it. The cache is
// created fresh with every build, so its contents can never cross oracle
// generations. The zero value (nil oracle) is a never-built bicc.
type biccBuilt struct {
	o     *bicc.Oracle
	cache *bicc.ClusterCache
	cost  asym.Cost
	// dEpoch is the epoch whose graph o's decomposition decomposes.
	dEpoch int64
}

// effectiveBicc returns the bicc instance the strict query path serves,
// with the epoch its state was built at: the lazily built one at the
// snapshot epoch when the slot's query-triggered rebuild has happened, else
// the carried one at its tag (stale, or never built at -1). The slot is
// loaded once, so the pair is coherent even while a lazy build races.
func (s *snapshot) effectiveBicc() (biccBuilt, int64) {
	if s.biccLazy != nil {
		if lb := s.biccLazy.built.Load(); lb != nil {
			return *lb, s.epoch
		}
	}
	return s.bicc, s.biccEpoch
}

// liveBiccCaches calls f with the cluster cache of every bicc instance that
// can still be serving answers for this snapshot: the carried base instance
// (which bounded-staleness queries keep using even after a lazy build
// replaced it on the strict path) and the lazily built one. Cache-counter
// aggregation iterates these so no instance's telemetry goes dark before
// publish-time folding retires it.
func (s *snapshot) liveBiccCaches(f func(*bicc.ClusterCache)) {
	if s.bicc.cache != nil {
		f(s.bicc.cache)
	}
	if s.biccLazy != nil {
		if lb := s.biccLazy.built.Load(); lb != nil {
			f(lb.cache)
		}
	}
}

// counts returns the structure counters shared by /stats and /info. A
// never-built bicc contributes nothing (NumBCC reads 0 until the first
// biconnectivity query forces its build).
func (s *snapshot) counts() (components, bccs int) {
	if b, _ := s.effectiveBicc(); b.o != nil {
		bccs = b.o.NumBCC
	}
	return s.conn.NumComponents, bccs
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

	// Worker pool + admission control.
	pool        *Pool
	maxInflight int64
	inflight    atomic.Int64
	rejected    atomic.Int64

	snap atomic.Pointer[snapshot]

	// wpool recycles worker state (per-kind meters, symmetric tracker,
	// query scratches) across batch chunks, so steady-state serving
	// allocates nothing per chunk.
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

	// Per-kind aggregates, in Kinds order. The meters are shared
	// long-lived accumulators (atomic internally); workers merge into them
	// only at shard completion, so the per-query hot path touches
	// worker-local state only.
	kinds [numKinds]kindAgg

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
	stratCounts  map[string]map[string]int64 // oracle -> strategy -> rebuilds
	edgesAdded   int64
	edgesRemoved int64

	// met holds the engine's pre-resolved metric handles (metrics.go).
	// Assigned once in New after the first snapshot publishes, so the
	// scrape-time callbacks registered with it never see a nil snapshot.
	met *engineMetrics

	// testRebuildErr, when non-nil, lets white-box tests inject a rebuild
	// failure (the path that must surface as ErrRebuildFailed, not a
	// 400).
	testRebuildErr func(next *graph.Graph) error
}

type kindAgg struct {
	count  atomic.Int64
	errors atomic.Int64
	meter  *asym.Meter
}

// New builds the oracles over g and returns a ready engine: one implicit
// decomposition, then the conn and bicc oracles over it in parallel
// (buildOracles), each on its own meter so the per-oracle construction
// costs stay separable in /stats. With Config.LazyBoot bicc is not built
// here; its first query builds it (buildLazy) over conn's decomposition,
// which Repair returns unchanged, so that build's cost is bicc.BuildOracle
// alone.
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
		delta:       map[[2]int32]int{},
		stratCounts: map[string]map[string]int64{},
	}
	e.cond = sync.NewCond(&e.mu)
	for i := range e.kinds {
		e.kinds[i].meter = asym.NewMeter(omega)
	}
	co, connCost, bb := e.buildOracles(g, !cfg.LazyBoot)
	bb.dEpoch = cfg.InitialEpoch
	if len(cfg.InitialForest) > 0 || cfg.InitialChainDepth > 0 {
		// Recovery: adopt the persisted forest + chain depth. A forest the
		// oracle rejects (stale against the recovered graph) is dropped —
		// the fresh seed from the build stands, which is always correct,
		// just a new chain.
		if adopted, err := co.AdoptForest(cfg.InitialForest, cfg.InitialChainDepth); err == nil {
			co = adopted
		}
	}
	biccEpoch, biccLazy := cfg.InitialEpoch, (*lazySlot)(nil)
	if cfg.LazyBoot {
		// Never built; the first biconnectivity query builds.
		biccEpoch, biccLazy = -1, &lazySlot{}
	}
	e.snap.Store(&snapshot{epoch: cfg.InitialEpoch, g: g, conn: co, connCost: connCost, connDEpoch: cfg.InitialEpoch, bicc: bb, biccEpoch: biccEpoch, biccLazy: biccLazy})
	e.met = newEngineMetrics(cfg.Metrics, cfg.GraphName, e)
	return e
}

// buildOracles builds the implicit decomposition of g once, on conn's
// meter, then the rest of the conn oracle and, when withBicc is set, the
// bicc oracle over it in parallel. conn's cost includes the decomposition
// (conn always builds, bicc may be deferred); bicc's covers only its own
// work. Used for the initial snapshot. A panicking build is re-raised on
// the calling goroutine once both builds have ended (parallel.Ctx.Fork2),
// and reaches the caller's recover (the Registry parks the graph at
// StateFailed).
func (e *Engine) buildOracles(g *graph.Graph, withBicc bool) (co *conn.Oracle, connCost asym.Cost, bb biccBuilt) {
	m := asym.NewMeter(e.omega)
	c := parallel.NewCtx(m, asym.NewSymTracker(e.sym))
	d := decomp.Build(c, graph.View{G: g, M: m}, e.k, e.seed, decomp.Options{})
	parallel.NewCtx(nil, nil).Fork2(func(*parallel.Ctx) {
		co = conn.BuildOver(c, m, d, e.seed)
		co.EnsureForest(m)
	}, func(*parallel.Ctx) {
		if withBicc {
			bb = e.buildBicc(parallel.NewCtx(asym.NewMeter(e.omega), asym.NewSymTracker(e.sym)), d)
		}
	})
	return co, m.Snapshot(), bb
}

// buildConn constructs the conn oracle over vw with its own decomposition,
// charging vw.M: the rebased and full rungs of the conn ladder. The
// explicit spanning forest is part of the dynamic-capable oracle's
// construction (it is what makes deletions patchable), so it is seeded
// here and charged to the same meter — conn.BuildOracle itself stays
// pristine for the paper's static cost bounds.
func (e *Engine) buildConn(vw graph.View) *conn.Oracle {
	o := conn.BuildOracle(parallel.NewCtx(vw.M, asym.NewSymTracker(e.sym)), vw, e.k, e.seed)
	o.EnsureForest(vw.M)
	return o
}

// buildBicc constructs a bicc oracle over decomposition d of its graph,
// with a fresh cluster cache, charging c's meter. The returned cost is
// everything that meter has charged: at boot bicc.BuildOracle alone (conn
// pays for the decomposition); in a lazy build also the Repair that
// produced d.
func (e *Engine) buildBicc(c *parallel.Ctx, d *decomp.Decomposition) biccBuilt {
	m := c.Meter()
	o := bicc.BuildOracle(c, graph.View{G: d.Graph(), M: m}, d, e.k, e.seed)
	return biccBuilt{o: o, cache: bicc.NewClusterCache(0), cost: m.Snapshot()}
}

// buildCosts returns each oracle's snapshot build cost. For bicc this is
// the cost of whatever build produced the effective instance — the carried
// one while stale, the lazy build's once it has run, zero while never
// built.
func (s *snapshot) buildCosts() map[string]asym.Cost {
	b, _ := s.effectiveBicc()
	return map[string]asym.Cost{"conn": s.connCost, "bicc": b.cost}
}

// oracleEpochs maps each oracle to the epoch its effective instance was
// last actually built at (-1 for a never-built bicc) — the per-oracle
// staleness surface of /stats, /info and the oracle_epoch metric gauge.
func (s *snapshot) oracleEpochs() map[string]int64 {
	_, built := s.effectiveBicc()
	return map[string]int64{"conn": s.epoch, "bicc": built}
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
	e.snap.Load().liveBiccCaches(func(cc *bicc.ClusterCache) {
		h, ms, ev := cc.Stats()
		hits += h
		misses += ms
		evicts += ev
	})
	return hits, misses, evicts
}

// Conn exposes the current snapshot's connectivity oracle (read-only use).
func (e *Engine) Conn() *conn.Oracle { return e.snap.Load().conn }

// Bicc exposes the current snapshot's biconnectivity oracle (read-only
// use); nil while it is deferred and has never been built.
func (e *Engine) Bicc() *bicc.Oracle {
	b, _ := e.snap.Load().effectiveBicc()
	return b.o
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
// oracle. Nothing here is shared until mergeInto. A scratch depends only on
// the oracle's type, so a pooled worker's scratches stay valid across
// snapshot swaps.
type worker struct {
	meters [numKinds]*asym.Meter
	counts [numKinds]int64
	errs   [numKinds]int64
	sym    *asym.SymTracker
	connSc *decomp.Scratch
	biccSc *bicc.Scratch
	// fillSym isolates the symmetric peak of one cache-filling query so it
	// can be recorded for replay: it is Reset before each fill, and the
	// observed peak is folded into sym (every query returns its footprint
	// to zero, so the worker's cumulative high-water is the max of
	// per-query peaks either way).
	fillSym *asym.SymTracker
}

func (e *Engine) newWorker() *worker {
	w := &worker{
		sym:     asym.NewSymTracker(e.sym),
		connSc:  decomp.NewScratch(),
		biccSc:  bicc.NewScratch(),
		fillSym: asym.NewSymTracker(0),
	}
	for i := range w.meters {
		w.meters[i] = asym.NewMeter(e.omega)
	}
	return w
}

// getWorker takes a worker from the engine's pool, or builds one.
func (e *Engine) getWorker() *worker {
	if w, _ := e.wpool.Get().(*worker); w != nil {
		return w
	}
	return e.newWorker()
}

// putWorker resets the worker's accumulators (after mergeInto) and returns
// it to the pool. The scratches are deliberately kept — their grown
// buffers are the allocation win.
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
func (w *worker) replay(m *asym.Meter, v rcVal) int32 {
	m.Merge(v.cost)
	w.sym.Fold(v.peak)
	return v.ans
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
// for an unknown kind). The single m.Write(1) charges the store of the
// answer into the batch's result slice (the output-sized write cost of the
// model); the oracles themselves write nothing during queries.
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
	agg := kindIndex(q.Kind)
	if agg < 0 {
		// Unknown kinds are not attributable to a per-kind meter; count
		// them under no kind and report the error.
		return Result{Err: fmt.Sprintf("unknown query kind %q", q.Kind)}, -1 //wec:alloc malformed-query error path, not the hot answer path
	}
	n := int32(s.g.N())
	pairwise := agg != aggComponent && agg != aggArticulation
	if q.U < 0 || q.U >= n || (pairwise && (q.V < 0 || q.V >= n)) {
		w.errs[agg]++
		return Result{Err: fmt.Sprintf("vertex out of range [0,%d)", n)}, agg //wec:alloc malformed-query error path, not the hot answer path
	}
	bounded := false
	switch q.Staleness {
	case "", StalenessStrict:
	case StalenessBounded:
		bounded = true
	default:
		w.errs[agg]++
		return Result{Err: fmt.Sprintf("unknown staleness %q", q.Staleness)}, agg //wec:alloc malformed-query error path, not the hot answer path
	}
	// Resolve the serving bicc instance: one nil check when fresh; while
	// deferred, the lazily built instance, the stale one (bounded queries
	// only), or the single-flight on-demand build (lazy.go). ep is the
	// epoch the serving oracle's state was built at — it keys the result
	// table, so strict and bounded answers, and answers from different
	// build generations, never share an entry. conn is always fresh.
	ep := s.epoch
	var b *biccBuilt
	if agg >= aggBridge {
		var err error
		if b, ep, err = e.resolveBicc(s, bounded); err != nil {
			w.errs[agg]++
			return Result{Err: err.Error()}, agg //wec:alloc lazy-build failure path, not the hot answer path
		}
	}
	m := w.meters[agg]
	// Result memoization: the engine's epoch-keyed shared table. Hits
	// replay the memoized query's recorded cost and symmetric peak, so
	// per-kind telemetry is identical to recomputing; misses compute,
	// record, and publish. Boolean answers are stored as 0/1.
	key := rcKey{agg: int32(agg), u: q.U, v: q.V}
	var ans int32
	if hit, ok := e.rcache.get(ep, key); ok {
		e.rcHits.Add(1)
		ans = w.replay(m, hit)
	} else {
		e.rcMisses.Add(1)
		before := m.Snapshot()
		sym := w.fillSym
		sym.Reset()
		var yes bool
		switch agg {
		case aggConnected:
			yes = s.conn.ConnectedS(m, sym, w.connSc, q.U, q.V)
		case aggComponent:
			ans = s.conn.QueryS(m, sym, w.connSc, q.U)
		case aggBridge:
			yes = b.o.IsBridgeS(m, sym, w.biccSc, b.cache, q.U, q.V)
		case aggArticulation:
			yes = b.o.IsArticulationS(m, sym, w.biccSc, b.cache, q.U)
		case aggBiconnected:
			yes = b.o.BiconnectedS(m, sym, w.biccSc, b.cache, q.U, q.V)
		case aggTwoEdgeConnected:
			yes = b.o.OneEdgeConnectedS(m, sym, w.biccSc, b.cache, q.U, q.V)
		}
		if yes {
			ans = 1
		}
		// Fold the fill's isolated peak into the worker tracker: queries
		// return their footprint to zero, so the worker's high-water is the
		// max of per-query peaks either way.
		w.sym.Fold(sym.HighWater())
		if e.rcache.put(ep, key, rcVal{ans: ans, cost: m.Snapshot().Sub(before), peak: sym.HighWater()}) {
			e.rcEvicts.Add(1)
		}
	}
	m.Write(1) // store the answer (output-sized cost)
	w.counts[agg]++
	var res Result
	switch {
	case agg != aggComponent && ans != 0:
		res = Result{Bool: boolTrue}
	case agg != aggComponent:
		res = Result{Bool: boolFalse}
	case len(*labels) < cap(*labels):
		*labels = append(*labels, ans)
		res = Result{Label: &(*labels)[len(*labels)-1]}
	default:
		// Undersized arena (a caller bug — both call sites size it to one
		// slot per query): box this label rather than let append
		// reallocate, which would silently dangle every previously returned
		// Result.Label into the old array.
		lbl := ans
		res = Result{Label: &lbl} //wec:alloc arena-overflow fallback; both call sites size the arena to avoid it
	}
	if bounded {
		res.Epoch = ep
	}
	return res, agg
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
		w := e.getWorker()
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
	e.met.queueWait.Observe(wait.Seconds())
	return out, wait
}

// Query answers a single query (a one-element batch without the pool
// round-trip).
func (e *Engine) Query(q Query) Result {
	s := e.snap.Load()
	w := e.getWorker()
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
		BuildCosts: sn.buildCosts(),
		Queries:    make(map[string]KindStats, numKinds),
		Epoch:      sn.epoch,
	}
	s.PendingUpdates = e.unapplied
	s.TotalRebuilds = e.nRebuilds
	s.RebuildsAvoided = e.nRebuilds
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
	s.LazyRebuilds = e.met.rebuildDur[StrategyLazy].Count()
	s.OracleEpochs = sn.oracleEpochs()
	s.NumComponents, s.NumBCC = sn.counts()
	s.ConnChainDepth = sn.conn.ChainDepth()
	for i, kind := range Kinds {
		ks := KindStats{
			Count:  e.kinds[i].count.Load(),
			Errors: e.kinds[i].errors.Load(),
			Cost:   e.kinds[i].meter.Snapshot(),
		}
		s.Queries[string(kind)] = ks
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
		QueueWait:   time.Duration(math.Round(e.met.queueWait.Sum() * 1e9)),
	}
	s.Pool = e.pool.Stats()
	return s
}
