package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// This file is the dynamic-update half of the engine: edge-churn batches
// are validated and staged under the engine lock, a single background
// goroutine folds all staged batches into the next snapshot (coalescing
// them into one rebuild), and an atomic pointer swap publishes it. The
// current snapshot keeps answering queries for the whole rebuild — updates
// never block reads.
//
// Strategy selection is one ladder per oracle, chosen per coalesced batch
// (the new graph version is written in every case — full rebuilds and the
// deletion path's replacement search need it). The graph is a blocked
// copy-on-write structure, so that write is the block table plus the
// blocks holding a batch endpoint; every other block is shared with the
// current snapshot's graph. conn's spanning forest is stored the same way,
// so a patched rung copies its block table and the blocks its links and
// cuts touch, never the whole forest. The two ladders run in parallel.
//
// conn (never deferred — its kinds gate admission semantics):
//
//   rebased        the incremental patch chain reached Config.RebaseEvery:
//                  one reconstruction over the current graph collapses the
//                  remap chain and reseeds the forest, scheduled before the
//                  chain's per-batch copy cost outgrows its savings.
//   patched-insert insertion-only batch: the O(#merged-components)-write
//                  label merge (conn.Oracle.ApplyInsertions).
//   patched-delete batch contains removals: the adds fold in first, then
//                  spanning-forest maintenance absorbs every removal that
//                  preserves connectivity (conn.Oracle.ApplyDeletions); a
//                  genuine component split (conn.ErrNeedsRebuild) steps
//                  down one rung to full.
//   full           a fresh conn build over the new graph.
//
// bicc (deferred):
//
//   patched-insert, patched-delete
//                  bicc is fresh and every edit of the batch is a provable
//                  no-op for the block-cut tree (bicc.Oracle.InsertionIsNoop,
//                  DeletionIsNoop), removals that only take back copies
//                  added since the instance's build included: the
//                  instance, with its cluster cache, is carried into the
//                  new snapshot as fresh.
//   lazy           everything else: the previous instance is carried forward
//                  as stale (tagged with its built epoch) and a lazySlot is
//                  planted in the new snapshot. Nothing is built on the
//                  publish path; the first biconnectivity query pays for
//                  one single-flight rebuild (lazy.go). Biconnectivity is
//                  neither insertion- nor deletion-monotone, so a batch
//                  that makes a net change to the blocks defers bicc, and
//                  a conn-only workload never pays for the build.
//
// Per-rebuild asymmetric costs (graph / conn / bicc, separately metered),
// the per-oracle strategies taken, and cumulative per-oracle strategy
// counters are recorded in RebuildRecord / Stats and served through
// /stats — how the write savings of the incremental paths are measured
// (and asserted by the churn harnesses) end to end.

// Rebuild strategies recorded per oracle in RebuildRecord.Strategies.
const (
	StrategyPatchedInsert = "patched-insert"
	StrategyPatchedDelete = "patched-delete"
	StrategyRebased       = "rebased"
	StrategyFull          = "full"
	// StrategyLazy marks a bicc rebuild skipped at publish time and
	// deferred to the first biconnectivity query (lazy.go). Its label also
	// keys the rebuild-duration histogram bucket those deferred,
	// query-triggered builds observe into.
	StrategyLazy = "lazy"
)

// DefaultRebaseEvery is the chain-depth budget selected by
// Config.RebaseEvery = 0: a conn oracle whose incremental patch chain
// reaches this depth is re-based (fresh decomposition) instead of patched
// again.
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
// Strategy is the rung the conn oracle took (bicc's rung never does publish
// work worth a headline); Strategies records the rung each oracle actually
// took, keyed "conn" and "bicc". The costs are the publish path's own
// metered work: a deferred bicc contributes only its refused patch attempt
// (often zero) — the deferred build's cost surfaces later on the snapshot's
// build-cost side (/stats build_costs), not here. OracleCosts has each
// oracle's cost, keyed the same way.
type RebuildRecord struct {
	Epoch        int64                `json:"epoch"`
	Strategy     string               `json:"strategy"`             // patched-insert | patched-delete | rebased | full
	Strategies   map[string]string    `json:"strategies,omitempty"` // oracle name -> strategy taken
	Batches      int                  `json:"batches"`              // update batches coalesced in
	AddedEdges   int                  `json:"added_edges"`
	RemovedEdges int                  `json:"removed_edges"`
	GraphCost    asym.Cost            `json:"graph_cost"` // writing the new graph version: block table plus touched blocks
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
// snapshot (or the engine closes). wait=true covers publication, not the
// durable commit marker: the rebuilder calls Persist.EpochPublished after
// it wakes the waiters, outside the engine lock, so that call may still be
// running (or not yet started) when Update returns. The batch's update
// record is durable either way (LogUpdate runs before staging).
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
			// The outgoing snapshot's cluster-cache counters retire into the
			// engine accumulators so /stats stays cumulative across swaps
			// (the caches themselves are rebuilt with their oracles — that is
			// the epoch invalidation rule). A cache carried into the next
			// snapshot — a deferred bicc's stale base, a no-op-patched
			// instance — is skipped: its counters stay live and folding them
			// now would double-count.
			cur.liveBiccCaches(func(cc *bicc.ClusterCache) {
				if cc == next.bicc.cache {
					return
				}
				h, ms, ev := cc.Stats()
				e.ccHits.Add(h)
				e.ccMisses.Add(ms)
				e.ccEvicts.Add(ev)
			})
			e.snap.Store(next)
			e.pubSeq = batches[len(batches)-1].seq
			e.nRebuilds++
			if rec.Strategy == StrategyPatchedInsert || rec.Strategy == StrategyPatchedDelete {
				e.nIncremental++
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

// buildNext folds the staged batches into a new snapshot, walking the conn
// and bicc ladders in parallel (see the file header). The new graph version
// (a copied block table with the batch's blocks rebuilt) is written in
// every case — full rebuilds need it and the deletion path's
// replacement search runs over it.
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

	var (
		co                   *conn.Oracle
		connCost             asym.Cost
		connStrat, biccStrat string
		bb                   biccBuilt
		biccEpoch            int64
		err                  error
	)
	bm := asym.NewMeter(e.omega)
	func() {
		// A panicking ladder is re-raised here, at the join; capture it as
		// this rebuild's error (the batches drop, the old snapshot keeps
		// serving) instead of letting it kill the process.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("oracle rebuild panicked: %v", r)
			}
		}()
		parallel.NewCtx(nil, nil).Fork2(func(*parallel.Ctx) {
			co, connCost, connStrat, err = e.connLadder(cur.conn, adds, removes, newG)
		}, func(*parallel.Ctx) {
			bb, biccEpoch, biccStrat = e.biccLadder(cur, bm, adds, removes, newG)
		})
	}()
	if err != nil { // staging validation makes this unreachable
		rec.Epoch = cur.epoch
		return nil, rec, err
	}
	rec.Strategy = connStrat
	rec.Strategies = map[string]string{"conn": connStrat, "bicc": biccStrat}
	// The record's costs are the publish path's own work — identical to
	// the snapshot build cost for conn, but NOT for bicc: its publish work
	// is only the no-op check, while its snapshot cost stays the build cost
	// of the instance that serves (the carried one, or later the deferred
	// build's).
	rec.OracleCosts = map[string]asym.Cost{"conn": connCost, "bicc": bm.Snapshot()}
	var lazy *lazySlot
	if biccStrat == StrategyLazy {
		lazy = &lazySlot{}
	}
	connDEpoch := cur.connDEpoch
	if co.D != cur.conn.D {
		connDEpoch = cur.epoch + 1 // the rung decomposed newG
	}
	next := &snapshot{epoch: cur.epoch + 1, g: newG, conn: co, connCost: connCost, connDEpoch: connDEpoch, bicc: bb, biccEpoch: biccEpoch, biccLazy: lazy}
	return next, rec, nil
}

// connLadder walks the conn ladder for one coalesced batch (see the file
// header), returning the new oracle with the cost and name of the rung
// that produced it.
func (e *Engine) connLadder(cur *conn.Oracle, adds, removes [][2]int32, newG *graph.Graph) (*conn.Oracle, asym.Cost, string, error) {
	m := asym.NewMeter(e.omega)
	if e.rebaseEvery > 0 && cur.ChainDepth() >= e.rebaseEvery {
		return e.buildConn(graph.View{G: newG, M: m}), m.Snapshot(), StrategyRebased, nil
	}
	strategy := StrategyPatchedInsert
	if len(removes) > 0 {
		strategy = StrategyPatchedDelete
	}
	sym := asym.NewSymTracker(e.sym)
	o, err := cur, error(nil)
	if len(adds) > 0 {
		// Coalesced-batch order: all adds fold in first (they can only
		// merge), then the removals run against the final multiset — the
		// same end state as replaying the batches.
		o, err = o.ApplyInsertions(m, sym, adds)
	}
	if err == nil && len(removes) > 0 {
		o, err = o.ApplyDeletions(m, sym, removes, newG)
	}
	if err == nil {
		return o, m.Snapshot(), strategy, nil
	}
	if !errors.Is(err, conn.ErrNeedsRebuild) {
		return nil, asym.Cost{}, strategy, err
	}
	// A deletion genuinely split a component: step down the ladder to a
	// full rebuild (fresh meter so the recorded cost is the rebuild's, not
	// patch-attempt + rebuild).
	m = asym.NewMeter(e.omega)
	return e.buildConn(graph.View{G: newG, M: m}), m.Snapshot(), StrategyFull, nil
}

// biccLadder walks the bicc ladder for one coalesced batch (see the file
// header), returning the instance the next snapshot carries, the epoch it
// counts as built at, and the rung. The no-op predicates answer about the
// instance's own graph, so a stale instance goes lazy untested. The
// predicate checks charge m, refused ones included: they are real publish
// work and show up in the record's costs. An instance absorbed as a no-op
// is the same oracle, so it keeps its build cost on the snapshot side.
func (e *Engine) biccLadder(cur *snapshot, m *asym.Meter, adds, removes [][2]int32, newG *graph.Graph) (biccBuilt, int64, string) {
	b, built := cur.effectiveBicc()
	if b.o == nil || built != cur.epoch || !e.biccNoop(b, m, adds, removes, newG) {
		return b, built, StrategyLazy
	}
	if len(removes) > 0 {
		return b, cur.epoch + 1, StrategyPatchedDelete
	}
	return b, cur.epoch + 1, StrategyPatchedInsert
}

// biccNoop reports whether every edit of the batch provably leaves b's
// block-cut tree unchanged, stopping at the first refusal. An insertion is
// a no-op when it lands strictly inside one block
// (bicc.Oracle.InsertionIsNoop); a removal when it is a self-loop or its
// pair keeps, in the post-batch graph, multiplicity >= 2 or at least the
// copies of b's build graph (bicc.Oracle.DeletionIsNoop). Anything else
// can merge or split blocks.
func (e *Engine) biccNoop(b biccBuilt, m *asym.Meter, adds, removes [][2]int32, newG *graph.Graph) bool {
	sym, sc := asym.NewSymTracker(e.sym), bicc.NewScratch()
	for _, ed := range adds {
		if !b.o.InsertionIsNoop(m, sym, sc, b.cache, ed[0], ed[1]) {
			return false
		}
	}
	for _, ed := range removes {
		mult := 0
		if ed[0] != ed[1] {
			mult = newG.EdgeMultiplicity(ed[0], ed[1])
		}
		if !b.o.DeletionIsNoop(m, ed[0], ed[1], mult) {
			return false
		}
	}
	return true
}
