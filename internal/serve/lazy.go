package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asym"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/parallel"
)

// Deferred (lazy) bicc rebuilds. The bicc oracle is not rebuilt on the
// publish path: buildNext (update.go) carries the previous instance forward
// as stale — tagged with the epoch it was actually built at — and plants a
// lazySlot in the new snapshot. The first biconnectivity query at that
// snapshot pays for one build; everything after it (and every concurrent
// query during it, via the slot mutex) uses the built instance. Conn
// queries never touch the slot, which is how a pure-connectivity tenant
// churns a graph forever without ever paying for bicc.
//
// Bounded-staleness queries (Query.Staleness == StalenessBounded) skip the
// build while the slot is unfilled and answer from the stale instance,
// reporting its built epoch — the escape hatch for tenants that prefer a
// lagging answer to a build stall.

// lazySlot is the mutable single-flight cell of one deferred bicc rebuild.
// It lives *beside* the immutable snapshot (referenced by it, never
// mutated through it): built flips nil -> non-nil exactly once, under mu,
// and is read lock-free by the query path. The build's metered cost becomes
// the slot's reported build cost — the lazy path moves the work, it
// doesn't hide it.
type lazySlot struct {
	mu    sync.Mutex
	built atomic.Pointer[biccBuilt]
}

// resolveBicc picks the bicc instance that serves one query against
// snapshot s, returning it with the epoch its state was built at (the cache
// key + the epoch reported on bounded answers). A fresh bicc costs one nil
// check; a deferred one resolves to the lazily built instance, the stale
// instance (bounded queries only), or blocks on the single-flight build.
//
//wec:noalloc
func (e *Engine) resolveBicc(s *snapshot, bounded bool) (*biccBuilt, int64, error) {
	if s.biccLazy == nil {
		return &s.bicc, s.epoch, nil
	}
	if lb := s.biccLazy.built.Load(); lb != nil {
		return lb, s.epoch, nil
	}
	if bounded && s.bicc.o != nil {
		return &s.bicc, s.biccEpoch, nil
	}
	lb, err := e.buildLazy(s)
	if err != nil {
		return nil, 0, err
	}
	return lb, s.epoch, nil
}

// buildLazy runs the deferred slot's on-demand build, single-flight: the
// first caller builds under the slot mutex while concurrent biconnectivity
// queries wait on it and then reuse the result (the double-check below).
// Conn queries never arrive here, so they never block. The build charges
// a fresh meter — its cost surfaces as the slot's build cost, not on any
// query's per-kind meter, so per-query telemetry is identical whether the
// build was eager or lazy. It builds over the newest decomposition at hand
// repaired onto the snapshot's graph (decomp.Repair), charged to the same
// meter, so the slot's cost (build_costs.bicc) is the repair plus
// bicc.BuildOracle. The newest is the carried bicc instance's when it was
// built after conn's rung last decomposed, else conn's. The repair is free
// when that decomposition is of the served graph itself, redoes only the
// clusters the batches since then touched, and is a rebuild when they
// changed too much of the graph for a repair to pay.
func (e *Engine) buildLazy(s *snapshot) (*biccBuilt, error) {
	slot := s.biccLazy
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if lb := slot.built.Load(); lb != nil {
		return lb, nil
	}
	start := time.Now()
	var lb biccBuilt
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf(`serve: oracle "bicc" lazy rebuild panicked: %v`, r)
			}
		}()
		m := asym.NewMeter(e.omega)
		c := parallel.NewCtx(m, asym.NewSymTracker(e.sym))
		base := s.conn.D
		if s.bicc.o != nil && s.bicc.dEpoch > s.connDEpoch {
			base = s.bicc.o.D
		}
		lb = e.buildBicc(c, decomp.Repair(c, graph.View{G: s.g, M: m}, base))
		lb.dEpoch = s.epoch
		return nil
	}()
	if err != nil {
		// Leave the slot unfilled: the next query retries the build. The
		// error surfaces on this query's Result like any oracle error.
		return nil, err
	}
	slot.built.Store(&lb)
	// The observation is also the lazy-build count (Stats.LazyRebuilds,
	// wec_lazy_rebuilds_total).
	e.met.rebuildDur[StrategyLazy].Observe(time.Since(start).Seconds())
	return &lb, nil
}
