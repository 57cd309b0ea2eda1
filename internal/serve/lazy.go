package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asym"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/parallel"
)

// Deferred (lazy) oracle rebuilds. A Deferrable factory's oracle is not
// rebuilt on the publish path: buildNext (update.go) carries the previous
// instance forward as stale — tagged with the epoch it was actually built
// at — and plants a lazySlot in the new snapshot. The first query of one
// of the factory's kinds at that snapshot pays for one build; everything
// after it (and every concurrent query during it, via the slot mutex) uses
// the built instance. Queries for other factories' kinds never touch the
// slot, which is how a pure-connectivity tenant churns a graph forever
// without ever paying for bicc.
//
// Bounded-staleness queries (Query.Staleness == StalenessBounded) skip the
// build while the slot is unfilled and answer from the stale instance,
// reporting its built epoch — the escape hatch for tenants that prefer a
// lagging answer to a build stall.

// lazySlot is the mutable single-flight cell of one deferred oracle slot.
// It lives *beside* the immutable snapshot (referenced by it, never
// mutated through it): built flips nil -> non-nil exactly once, under mu,
// and is read lock-free by the query path.
type lazySlot struct {
	mu    sync.Mutex
	built atomic.Pointer[lazyBuilt]
}

// lazyBuilt is the product of one on-demand build: the oracle and the
// build's metered cost (which becomes the slot's reported build cost — the
// lazy path moves the work, it doesn't hide it).
type lazyBuilt struct {
	o    oracle.QueryOracle
	cost asym.Cost
}

// resolveOracle picks the oracle instance that serves one query of factory
// fi against snapshot s, returning it with the epoch its state was built
// at (the cache key + the epoch reported on bounded answers). A fresh slot
// costs two nil checks; deferred slots resolve to the lazily built
// instance, the stale instance (bounded queries only), or block on the
// single-flight build.
//
//wec:noalloc
func (e *Engine) resolveOracle(s *snapshot, fi int, bounded bool) (oracle.QueryOracle, int64, error) {
	if s.lazy == nil || s.lazy[fi] == nil {
		return s.oracles[fi], s.epoch, nil
	}
	slot := s.lazy[fi]
	if lb := slot.built.Load(); lb != nil {
		return lb.o, s.epoch, nil
	}
	if bounded && s.oracles[fi] != nil {
		return s.oracles[fi], s.builtEpoch[fi], nil
	}
	lb, err := e.buildLazy(s, fi)
	if err != nil {
		return nil, 0, err
	}
	return lb.o, s.epoch, nil
}

// buildLazy runs the deferred slot's on-demand build, single-flight: the
// first caller builds under the slot mutex while concurrent callers of the
// same factory's kinds wait on it and then reuse the result (the
// double-check below). Queries of other factories never arrive here, so
// they never block. The build charges a fresh meter — its cost surfaces as
// the slot's build cost, not on any query's per-kind meter, so per-query
// telemetry is identical whether the build was eager or lazy.
func (e *Engine) buildLazy(s *snapshot, fi int) (*lazyBuilt, error) {
	slot := s.lazy[fi]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if lb := slot.built.Load(); lb != nil {
		return lb, nil
	}
	start := time.Now()
	m := asym.NewMeter(e.omega)
	var o oracle.QueryOracle
	err := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("serve: oracle %q lazy rebuild panicked: %v", e.factories[fi].Name, r)
			}
		}()
		c := parallel.NewCtx(m, asym.NewSymTracker(e.sym))
		o = e.factories[fi].Build(c, graph.View{G: s.g, M: m}, e.k, e.seed)
		return nil
	}()
	if err != nil {
		// Leave the slot unfilled: the next query retries the build. The
		// error surfaces on this query's Result like any oracle error.
		return nil, err
	}
	lb := &lazyBuilt{o: o, cost: m.Snapshot()}
	slot.built.Store(lb)
	e.lazyBuilds.Add(1)
	if e.met != nil {
		if h := e.met.rebuildDur[StrategyLazy]; h != nil {
			h.Observe(time.Since(start).Seconds())
		}
	}
	return lb, nil
}
