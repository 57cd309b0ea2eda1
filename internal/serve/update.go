package serve

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/parallel"
)

// This file is the dynamic-update half of the engine: edge-churn batches
// are validated and staged under the engine lock, a single background
// goroutine folds all staged batches into the next snapshot (coalescing
// them into one rebuild), and an atomic pointer swap publishes it. The
// current snapshot keeps answering queries for the whole rebuild — updates
// never block reads.
//
// Strategy selection is a per-oracle ladder, chosen per coalesced batch
// (the new graph CSR is written in every case — full rebuilds and the
// deletion path's replacement search need it):
//
//   patch-insert   insertion-only batch, oracle implements
//                  oracle.InsertionApplier: the connectivity oracle's
//                  O(#merged-components)-write label merge.
//   patch-delete   batch contains removals, oracle implements
//                  oracle.DeletionApplier (and InsertionApplier when the
//                  batch also adds): spanning-forest maintenance absorbs
//                  every removal that preserves connectivity; a genuine
//                  component split (typed oracle.ErrNeedsRebuild) steps
//                  down one rung to a full rebuild of that oracle.
//   rebased        the oracle's incremental patch chain reached
//                  Config.RebaseEvery: one reconstruction over the current
//                  graph collapses the remap chain and reseeds the forest
//                  (oracle.Rebaser), scheduled before the chain's per-batch
//                  copy cost outgrows its savings.
//   lazy           the factory is Deferrable and the batch is not a provable
//                  no-op for it: the previous instance is carried forward as
//                  stale (tagged with its built epoch) and a lazySlot is
//                  planted in the new snapshot. Nothing is built on the
//                  publish path; the first query of one of the factory's
//                  kinds pays for one single-flight rebuild (lazy.go).
//                  Biconnectivity is neither insertion- nor deletion-
//                  monotone, so this is its rung for every batch it cannot
//                  prove structure-preserving — a conn-only workload churns
//                  forever without ever rebuilding bicc.
//   full           everything else.
//
// Per-rebuild asymmetric costs (graph / conn / bicc, separately metered),
// the per-oracle strategies taken, and cumulative per-oracle strategy
// counters are recorded in RebuildRecord / Stats and served through
// /stats — how the write savings of the incremental paths are measured
// (and asserted by the churn harnesses) end to end.

// Rebuild strategies recorded per oracle in RebuildRecord.Strategies and
// summarized in RebuildRecord.Strategy.
const (
	StrategyPatchedInsert = "patched-insert"
	StrategyPatchedDelete = "patched-delete"
	StrategyRebased       = "rebased"
	StrategyFull          = "full"
	// StrategyLazy marks a Deferrable oracle whose rebuild was skipped at
	// publish time and deferred to the first matching query (lazy.go). Its
	// label also keys the rebuild-duration histogram bucket those deferred,
	// query-triggered builds observe into.
	StrategyLazy = "lazy"
)

// DefaultRebaseEvery is the chain-depth budget selected by
// Config.RebaseEvery = 0: an oracle whose incremental patch chain reaches
// this depth is re-based (fresh decomposition) instead of patched again.
const DefaultRebaseEvery = 64

// ErrClosed is returned by Update after Close.
var ErrClosed = errors.New("serve: engine closed")

// MaxRebuildHistory bounds the rebuild records kept for /stats: older
// records rotate out, so consumers asserting on per-rebuild telemetry must
// account for the cap (the churn harness does).
const MaxRebuildHistory = 32

// Update is one edge-churn batch: Add edges are applied before Remove
// edges. Vertex ids must lie in the served graph's fixed vertex set;
// multiset semantics match graph.Overlay (parallel edges and self-loops
// allowed, removals take one copy each).
type Update struct {
	Add    [][2]int32
	Remove [][2]int32
}

// UpdateStatus reports the outcome of staging an update.
type UpdateStatus struct {
	// Seq is the batch's staging sequence number (1-based).
	Seq int64
	// Epoch is the snapshot epoch observed at return: the epoch that
	// includes the batch when Applied, the pre-staging epoch otherwise.
	Epoch int64
	// Pending counts staged batches not yet folded into a snapshot.
	Pending int
	// Applied reports whether the batch is already part of the published
	// snapshot (always true when Update was called with wait=true).
	Applied bool
}

// RebuildRecord is the telemetry of one background rebuild attempt.
// Strategy summarizes the batch (the most incremental rung any oracle
// worked on the publish path; "lazy" only when every oracle deferred);
// Strategies records the rung each oracle actually took, keyed by factory
// name. The costs are the publish path's own metered work: a lazily
// deferred oracle contributes only its refused patch attempt (often zero) —
// the deferred build's cost surfaces later on the snapshot's build-cost
// side (/stats Oracles), not here. ConnCost/BiccCost are the built-in
// factories' costs (kept for single-graph clients); OracleCosts has every
// registered factory's, keyed by factory name.
type RebuildRecord struct {
	Epoch        int64                `json:"epoch"`
	Strategy     string               `json:"strategy"`             // patched-insert | patched-delete | rebased | lazy | full
	Strategies   map[string]string    `json:"strategies,omitempty"` // factory name -> strategy taken
	Batches      int                  `json:"batches"`              // update batches coalesced in
	AddedEdges   int                  `json:"added_edges"`
	RemovedEdges int                  `json:"removed_edges"`
	GraphCost    asym.Cost            `json:"graph_cost"` // writing the new CSR
	ConnCost     asym.Cost            `json:"conn_cost"`  // connectivity oracle (patched, rebased or full)
	BiccCost     asym.Cost            `json:"bicc_cost"`  // biconnectivity oracle (patched, deferred or full)
	OracleCosts  map[string]asym.Cost `json:"oracle_costs,omitempty"`
	Duration     time.Duration        `json:"duration_ns"`
	Err          string               `json:"error,omitempty"`
}

// updateBatch is one staged Update plus its bookkeeping: the multiset delta
// it contributed to Engine.delta (for exact un-staging at publish time) and
// the completion state its waiters block on.
type updateBatch struct {
	seq    int64
	add    [][2]int32
	remove [][2]int32
	delta  map[[2]int32]int

	done  bool
	err   error
	epoch int64 // epoch that folded the batch in (when done && err == nil)
}

// Update validates and stages an edge-churn batch, waking the background
// rebuilder. With wait=false it returns as soon as the batch is staged;
// with wait=true it blocks until the batch is part of the published
// snapshot (or the engine closes).
//
// Validation is synchronous and atomic: vertex ids are bounds-checked and
// every removal is checked against the effective edge multiset (published
// snapshot plus all staged batches, this one included, adds before
// removes). A rejected batch stages nothing. The multiplicity rule here
// must stay the cross-batch extension of graph.Overlay's (same NormEdge
// keys, adds before removes): buildNext replays accepted batches into an
// Overlay and relies on them agreeing.
func (e *Engine) Update(u Update, wait bool) (UpdateStatus, error) {
	if len(u.Add)+len(u.Remove) == 0 {
		return UpdateStatus{}, errors.New("serve: empty update")
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return UpdateStatus{}, ErrClosed
	}
	sn := e.snap.Load()
	n := int32(sn.g.N())
	batchDelta := map[[2]int32]int{}
	for _, edge := range u.Add {
		if edge[0] < 0 || edge[1] < 0 || edge[0] >= n || edge[1] >= n {
			e.mu.Unlock()
			return UpdateStatus{}, fmt.Errorf("serve: add edge (%d,%d) out of range [0,%d)", edge[0], edge[1], n)
		}
		batchDelta[graph.NormEdge(edge)]++
	}
	for _, edge := range u.Remove {
		if edge[0] < 0 || edge[1] < 0 || edge[0] >= n || edge[1] >= n {
			e.mu.Unlock()
			return UpdateStatus{}, fmt.Errorf("serve: remove edge (%d,%d) out of range [0,%d)", edge[0], edge[1], n)
		}
		key := graph.NormEdge(edge)
		if sn.g.EdgeMultiplicity(key[0], key[1])+e.delta[key]+batchDelta[key] <= 0 {
			e.mu.Unlock()
			return UpdateStatus{}, fmt.Errorf("serve: remove edge (%d,%d): not present", edge[0], edge[1])
		}
		batchDelta[key]--
	}

	// Durability before staging: once the batch is staged it can be
	// acknowledged, so it must already be in the WAL by then. A log
	// failure rejects the batch with nothing staged.
	if e.persist != nil {
		if perr := e.persist.LogUpdate(e.seq+1, u.Add, u.Remove); perr != nil {
			e.mu.Unlock()
			return UpdateStatus{}, fmt.Errorf("%w: %v", ErrPersist, perr)
		}
	}

	for k, d := range batchDelta {
		e.delta[k] += d
	}
	e.seq++
	b := &updateBatch{
		seq:    e.seq,
		add:    append([][2]int32(nil), u.Add...),
		remove: append([][2]int32(nil), u.Remove...),
		delta:  batchDelta,
	}
	e.pending = append(e.pending, b)
	e.unapplied++
	e.loopOnce.Do(func() { go e.rebuildLoop() })
	e.cond.Broadcast()

	if !wait {
		st := UpdateStatus{Seq: b.seq, Epoch: sn.epoch, Pending: e.unapplied}
		e.mu.Unlock()
		return st, nil
	}
	for !b.done {
		e.cond.Wait()
	}
	st := UpdateStatus{Seq: b.seq, Epoch: b.epoch, Pending: e.unapplied, Applied: b.err == nil}
	err := b.err
	e.mu.Unlock()
	return st, err
}

// Close stops accepting updates and shuts the rebuild goroutine down after
// it drains the already-staged batches. Queries keep working against the
// last published snapshot. Idempotent.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
}

// rebuildLoop is the single background rebuilder: it drains all staged
// batches at once, builds the next snapshot while the current one serves,
// publishes it with an atomic store, and wakes the batches' waiters.
func (e *Engine) rebuildLoop() {
	for {
		e.mu.Lock()
		for len(e.pending) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.pending) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		batches := e.pending
		e.pending = nil
		cur := e.snap.Load()
		e.mu.Unlock()

		start := time.Now()
		next, rec, err := e.buildNext(cur, batches)
		rec.Duration = time.Since(start)
		if err != nil {
			// Typed so wait=true updaters (and the HTTP layer) can tell a
			// server-side rebuild failure from a rejected request.
			err = fmt.Errorf("%w: %v", ErrRebuildFailed, err)
		}

		e.mu.Lock()
		if err == nil {
			// The outgoing snapshot's oracle-side cache counters retire into
			// the engine accumulators so /stats stays cumulative across
			// swaps (the caches themselves are rebuilt with their oracles —
			// that is the epoch invalidation rule). Instances carried into
			// the next snapshot — a deferred oracle's stale base, a
			// no-op-patched adapter that returned itself — are skipped: their
			// counters stay live and folding them now would double-count.
			for fi := range cur.oracles {
				cur.liveOracles(fi, func(o oracle.QueryOracle) {
					if oracleSame(o, next.oracles[fi]) {
						return
					}
					if cs, ok := o.(oracle.CacheStatser); ok {
						h, ms, ev := cs.CacheStats()
						e.ccHits.Add(h)
						e.ccMisses.Add(ms)
						e.ccEvicts.Add(ev)
					}
				})
			}
			e.snap.Store(next)
			e.pubSeq = batches[len(batches)-1].seq
			e.nRebuilds++
			if rec.Strategy == StrategyPatchedInsert || rec.Strategy == StrategyPatchedDelete || rec.Strategy == StrategyLazy {
				e.nIncremental++
			}
			for i := range e.factories {
				if !e.factories[i].Deferrable {
					continue
				}
				switch rec.Strategies[e.factories[i].Name] {
				case StrategyLazy, StrategyPatchedInsert, StrategyPatchedDelete:
					// Either rung means this publish skipped the eager
					// rebuild the pre-deferral engine would have paid for.
					e.rebuildsAvoided.Add(1)
				}
			}
			for name, s := range rec.Strategies {
				if e.stratCounts[name] == nil {
					e.stratCounts[name] = map[string]int64{}
				}
				e.stratCounts[name][s]++
			}
			e.edgesAdded += int64(rec.AddedEdges)
			e.edgesRemoved += int64(rec.RemovedEdges)
		} else {
			rec.Err = err.Error()
			// The dropped batches' WAL records must not replay on
			// recovery: abort them durably BEFORE their staged deltas are
			// released below — once released, later updates validate
			// against a graph without these batches, and a recovery that
			// resurrected them could invalidate those later, acknowledged
			// batches. (Batches drain FIFO, so the range is contiguous.)
			if e.persist != nil {
				if aerr := e.persist.LogAbort(batches[0].seq, batches[len(batches)-1].seq); aerr != nil {
					rec.Err += "; abort record failed: " + aerr.Error()
				}
			}
		}
		e.history = append(e.history, rec)
		if len(e.history) > MaxRebuildHistory {
			e.history = e.history[len(e.history)-MaxRebuildHistory:]
		}
		for _, b := range batches {
			// Whether published or dropped, the batch is no longer staged:
			// un-stage its multiset delta so removal validation tracks the
			// (new) published graph again.
			for k, d := range b.delta {
				if e.delta[k] += -d; e.delta[k] == 0 {
					delete(e.delta, k)
				}
			}
			b.done = true
			b.err = err
			b.epoch = rec.Epoch
			e.unapplied--
		}
		e.cond.Broadcast()
		cb := e.onRebuild
		e.mu.Unlock()
		// Metric observation outside the lock: strategies not on the ladder
		// (a failed build records Strategy before stepping down) fall back
		// to no observation rather than a panic.
		if err == nil {
			if h := e.met.rebuildDur[rec.Strategy]; h != nil {
				h.Observe(rec.Duration.Seconds())
			}
		} else {
			e.met.rebuildFail.Inc()
		}
		if err == nil && e.persist != nil {
			// Commit the published epoch to the durable log (and let it
			// compact) outside the engine lock: the snapshot's graph and
			// remap are immutable, so the store can encode them while new
			// batches stage concurrently. Batches drain FIFO with
			// monotonic sequence numbers, so the last one's seq is the
			// publish's coverage watermark.
			e.persist.EpochPublished(rec.Epoch, batches[len(batches)-1].seq, next.g,
				func() (map[int32]int32, [][2]int32, int) { return connDynOf(next) })
		}
		if cb != nil {
			cb(rec)
		}
	}
}

// planStrategy picks factory fi's rung on the update-strategy ladder for a
// batch of the given shape.
//
// Deferrable factories walk the deferred sub-ladder: attempt the no-op
// patch when the effective instance is fresh — the patch predicates answer
// about the instance's *own* graph, so testing a stale instance against a
// newer batch would be unsound — and otherwise go lazy, carrying the
// instance forward as stale for the first query to rebuild. Everything
// else walks the eager ladder: rebase when the patch chain hit its
// budget, else the cheapest patch the oracle's capabilities and the batch
// shape allow, else a full rebuild.
//
// The plan is provisional — inside the build, patch-delete steps down to
// full when the oracle refuses the batch with oracle.ErrNeedsRebuild (a
// genuine component split), and a deferrable oracle's refused patch steps
// down to lazy, never to a publish-path rebuild.
func (e *Engine) planStrategy(fi int, cur *snapshot, hasAdds, hasRemovals bool) string {
	o := cur.oracleAt(fi)
	if e.factories[fi].Deferrable {
		if o != nil && cur.builtEpochAt(fi) == cur.epoch {
			if !hasRemovals {
				if _, ok := o.(oracle.InsertionApplier); ok {
					return StrategyPatchedInsert
				}
			} else if _, ok := o.(oracle.DeletionApplier); ok {
				if !hasAdds {
					return StrategyPatchedDelete
				}
				if _, ok := o.(oracle.InsertionApplier); ok {
					return StrategyPatchedDelete
				}
			}
		}
		return StrategyLazy
	}
	if e.rebaseEvery > 0 {
		if rb, ok := o.(oracle.Rebaser); ok && rb.ChainDepth() >= e.rebaseEvery {
			return StrategyRebased
		}
	}
	if !hasRemovals {
		if _, ok := o.(oracle.InsertionApplier); ok {
			return StrategyPatchedInsert
		}
		return StrategyFull
	}
	if _, ok := o.(oracle.DeletionApplier); ok {
		if !hasAdds {
			return StrategyPatchedDelete
		}
		if _, ok := o.(oracle.InsertionApplier); ok {
			return StrategyPatchedDelete
		}
	}
	return StrategyFull
}

// summarizeStrategies collapses the per-oracle strategies into the record's
// headline: the most incremental rung a non-deferred oracle *worked* on the
// publish path. Deferrable oracles' entries are skipped entirely: their
// lazy rung did no publish work, and their no-op patch absorptions are
// read-only predicate checks — letting either outrank, say, a conn rebase
// would make the headline (and the incremental-rebuild counter it drives)
// depend on batch shapes the eager ladder never sees. Only a batch that
// defers every oracle summarizes as lazy.
func (e *Engine) summarizeStrategies(strategies []string) string {
	rank := map[string]int{StrategyFull: 0, StrategyRebased: 1, StrategyPatchedDelete: 2, StrategyPatchedInsert: 3}
	best := ""
	for i, s := range strategies {
		if e.factories[i].Deferrable {
			continue
		}
		if best == "" || rank[s] > rank[best] {
			best = s
		}
	}
	if best == "" {
		return StrategyLazy
	}
	return best
}

// oracleSame reports whether two oracle instances are the same carried
// value. Adapter patches that absorb a batch as a provable no-op return the
// receiver unchanged, so identity comparison is the signal that an instance
// survived into the next snapshot. Non-comparable dynamic types (a
// plugged-in oracle holding a map or slice directly) can't be carried-same
// in that sense, so they compare false instead of panicking.
func oracleSame(a, b oracle.QueryOracle) bool {
	if a == nil || b == nil {
		return false
	}
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) || !ta.Comparable() {
		return false
	}
	return a == b
}

// buildNext folds the staged batches into a new snapshot, walking the
// update-strategy ladder independently for every oracle (see the file
// header). The new graph CSR is written in every case — full rebuilds need
// it and the deletion path's replacement search runs over it.
func (e *Engine) buildNext(cur *snapshot, batches []*updateBatch) (*snapshot, RebuildRecord, error) {
	rec := RebuildRecord{Epoch: cur.epoch + 1, Batches: len(batches), Strategy: StrategyFull}

	ov := graph.NewOverlay(cur.g)
	var adds, removes [][2]int32
	for _, b := range batches {
		if err := ov.AddEdges(b.add); err != nil {
			rec.Epoch = cur.epoch
			return nil, rec, err
		}
		if err := ov.RemoveEdges(b.remove); err != nil {
			rec.Epoch = cur.epoch
			return nil, rec, err
		}
		adds = append(adds, b.add...)
		removes = append(removes, b.remove...)
	}
	rec.AddedEdges = ov.Added()
	rec.RemovedEdges = ov.Removed()

	gm := asym.NewMeter(e.omega)
	newG := ov.Build(gm)
	rec.GraphCost = gm.Snapshot()
	if e.testRebuildErr != nil {
		if err := e.testRebuildErr(newG); err != nil {
			rec.Epoch = cur.epoch
			return nil, rec, err
		}
	}

	hasAdds, hasRemovals := ov.Added() > 0, ov.Removed() > 0
	nf := len(e.factories)
	ms := make([]*asym.Meter, nf)
	os := make([]oracle.QueryOracle, nf)
	errs := make([]error, nf)
	strategies := make([]string, nf)
	for i := range ms {
		ms[i] = asym.NewMeter(e.omega)
		strategies[i] = e.planStrategy(i, cur, hasAdds, hasRemovals)
	}
	root := parallel.NewCtx(e.disp, nil)
	root.SetGrain(1)
	root.For(0, nf, func(_ *parallel.Ctx, i int) {
		// A panicking rebuild branch runs on a fork-spawned goroutine with
		// no recover above it; capture it as this rebuild's error (the
		// batches drop, the old snapshot keeps serving) instead of letting
		// it kill the process.
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("oracle %q rebuild panicked: %v", e.factories[i].Name, r)
			}
		}()
		switch strategies[i] {
		case StrategyLazy:
			// Nothing happens on the publish path; the assembly below
			// carries the stale instance forward and plants the slot.
			return
		case StrategyPatchedInsert:
			ia := cur.oracleAt(i).(oracle.InsertionApplier)
			o, err := ia.ApplyInsertions(ms[i], asym.NewSymTracker(e.sym), adds)
			if err == nil {
				os[i] = o
				return
			}
			if !errors.Is(err, oracle.ErrNeedsRebuild) {
				errs[i] = err
				return
			}
			if e.factories[i].Deferrable {
				// The oracle refused the patch (an insertion merges blocks):
				// a deferrable oracle steps down to the lazy rung, never to
				// a publish-path rebuild. The refused attempt's charges stay
				// on ms[i] — they are real publish work and show up in the
				// record's costs.
				strategies[i] = StrategyLazy
				return
			}
			// A typed refusal is a ladder step-down by contract, not a
			// failure: fall through to a full rebuild on a fresh meter so
			// the recorded cost is the rebuild's, not attempt + rebuild.
			strategies[i] = StrategyFull
			ms[i] = asym.NewMeter(e.omega)
		case StrategyPatchedDelete:
			sym := asym.NewSymTracker(e.sym)
			patched := cur.oracleAt(i)
			var err error
			if len(adds) > 0 {
				// Coalesced-batch order: all adds fold in first (they can
				// only merge), then the removals run against the final
				// multiset — the same end state as replaying the batches.
				patched, err = patched.(oracle.InsertionApplier).ApplyInsertions(ms[i], sym, adds)
			}
			if err == nil {
				os[i], err = patched.(oracle.DeletionApplier).ApplyDeletions(ms[i], sym, removes, newG)
			}
			if err == nil {
				return
			}
			if !errors.Is(err, oracle.ErrNeedsRebuild) {
				errs[i] = err
				return
			}
			if e.factories[i].Deferrable {
				// Refused patch on a deferrable oracle: defer, don't rebuild.
				strategies[i] = StrategyLazy
				return
			}
			// A deletion genuinely split a component: step down the ladder
			// to a full rebuild of this oracle (fresh meter so the recorded
			// cost is the rebuild's, not patch-attempt + rebuild).
			strategies[i] = StrategyFull
			ms[i] = asym.NewMeter(e.omega)
		case StrategyRebased:
			rb := cur.oracleAt(i).(oracle.Rebaser)
			c := parallel.NewCtx(ms[i], asym.NewSymTracker(e.sym))
			os[i] = rb.Rebase(c, graph.View{G: newG, M: ms[i]}, e.k, e.seed)
			return
		}
		c := parallel.NewCtx(ms[i], asym.NewSymTracker(e.sym))
		os[i] = e.factories[i].Build(c, graph.View{G: newG, M: ms[i]}, e.k, e.seed)
	})
	for _, err := range errs {
		if err != nil { // staging validation makes this unreachable
			rec.Epoch = cur.epoch
			return nil, rec, err
		}
	}
	rec.Strategies = make(map[string]string, nf)
	for i, f := range e.factories {
		rec.Strategies[f.Name] = strategies[i]
	}
	rec.Strategy = e.summarizeStrategies(strategies)
	// The record's costs are the publish path's own work, straight off the
	// per-oracle meters — identical to the snapshot build costs for every
	// eager rung, but NOT for a lazy slot, whose snapshot cost is the
	// carried (or later, the deferred build's) cost while its publish work
	// is just the refused patch attempt.
	rec.OracleCosts = make(map[string]asym.Cost, nf)
	for i, f := range e.factories {
		rec.OracleCosts[f.Name] = ms[i].Snapshot()
	}
	rec.ConnCost = rec.OracleCosts["conn"]
	rec.BiccCost = rec.OracleCosts["bicc"]
	costs := make([]asym.Cost, nf)
	for i, m := range ms {
		costs[i] = m.Snapshot()
	}
	nextEpoch := cur.epoch + 1
	var builtEpochs []int64
	var lazySlots []*lazySlot
	for i := range os {
		if strategies[i] != StrategyLazy {
			continue
		}
		if builtEpochs == nil {
			builtEpochs = make([]int64, nf)
			lazySlots = make([]*lazySlot, nf)
			for j := range builtEpochs {
				builtEpochs[j] = nextEpoch
			}
		}
		// Carry the effective instance forward as stale, tagged with the
		// epoch it was built at. The slot's built pointer flips nil ->
		// non-nil exactly once, so loading it once here keeps the
		// (instance, cost, tag) triple coherent even if a lazy build of cur
		// races with this publish.
		var lb *lazyBuilt
		if cur.lazy != nil && cur.lazy[i] != nil {
			lb = cur.lazy[i].built.Load()
		}
		switch {
		case lb != nil:
			os[i], costs[i], builtEpochs[i] = lb.o, lb.cost, cur.epoch
		case cur.builtEpoch != nil:
			os[i], costs[i], builtEpochs[i] = cur.oracles[i], cur.costs[i], cur.builtEpoch[i]
		default:
			os[i], costs[i], builtEpochs[i] = cur.oracles[i], cur.costs[i], cur.epoch
		}
		lazySlots[i] = &lazySlot{}
	}
	next := newSnap(nextEpoch, newG, os, costs, builtEpochs, lazySlots)
	return next, rec, nil
}
