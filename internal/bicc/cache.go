package bicc

import (
	"sync"

	"repro/internal/asym"
)

// ClusterCache memoizes materialized Definition 4 local graphs per cluster
// index. A local graph is a pure function of the immutable snapshot and
// the cluster index, so caching is sound for exactly one oracle; the
// serving layer creates a fresh cache alongside every bicc rebuild (the
// oracle takes the full-rebuild strategy on every snapshot swap), which is
// what "epoch-keyed" means here — stale entries cannot survive a swap
// because the cache does not survive it.
//
// The paper's cost accounting survives caching: each entry stores the
// meter charges and the symmetric-memory peak of its fill (taken on a
// private meter/tracker), and every hit replays them onto the caller's
// meter and tracker — a query answers with byte-identical telemetry
// whether it hit or filled, only wall-clock, GC and allocation behavior
// change. See localS for the replay argument.
//
// A ClusterCache is safe for concurrent use (one mutex; the critical
// sections are pointer moves and map probes). Bounded: least recently used
// entries are evicted past the capacity.
type ClusterCache struct {
	mu         sync.Mutex
	capacity   int
	entries    map[int32]*ccEntry
	head, tail *ccEntry // intrusive LRU list, head = most recent

	hits, misses, evicts int64
}

type ccEntry struct {
	ci         int32
	lg         *localGraph
	cost       asym.Cost
	peak       int
	prev, next *ccEntry
}

// DefaultClusterCacheCap bounds a cache created with capacity <= 0. A
// local graph holds O(k) nodes and edges, so the default keeps worst-case
// retention around O(k · cap) words — small next to the graph itself for
// the paper's k = Θ(√ω).
const DefaultClusterCacheCap = 4096

// NewClusterCache returns an empty cache evicting beyond the given entry
// capacity (<= 0 selects DefaultClusterCacheCap).
func NewClusterCache(capacity int) *ClusterCache {
	if capacity <= 0 {
		capacity = DefaultClusterCacheCap
	}
	return &ClusterCache{
		capacity: capacity,
		entries:  make(map[int32]*ccEntry, capacity/4),
	}
}

// get returns the cached local graph of cluster ci with its recorded fill
// charges, marking the entry most recently used.
//
//wec:noalloc
func (c *ClusterCache) get(ci int32) (*localGraph, asym.Cost, int, bool) {
	c.mu.Lock()
	e, ok := c.entries[ci]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, asym.Cost{}, 0, false
	}
	c.hits++
	c.moveToFront(e)
	lg, cost, peak := e.lg, e.cost, e.peak
	c.mu.Unlock()
	return lg, cost, peak, true
}

// put installs a freshly filled entry, evicting from the LRU tail past
// capacity. Concurrent fills of the same cluster race benignly — the build
// is deterministic, so both candidates are identical; first-wins keeps the
// map and list consistent, and the returned local graph is the retained
// one.
func (c *ClusterCache) put(ci int32, lg *localGraph, cost asym.Cost, peak int) *localGraph {
	c.mu.Lock()
	if e, ok := c.entries[ci]; ok {
		c.moveToFront(e)
		lg = e.lg
		c.mu.Unlock()
		return lg
	}
	e := &ccEntry{ci: ci, lg: lg, cost: cost, peak: peak}
	c.entries[ci] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		t := c.tail
		c.unlink(t)
		delete(c.entries, t.ci)
		c.evicts++
	}
	c.mu.Unlock()
	return lg
}

// Stats reports cumulative hit/miss/eviction counts.
func (c *ClusterCache) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicts
}

// Len reports the current entry count.
func (c *ClusterCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

//wec:noalloc
func (c *ClusterCache) pushFront(e *ccEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

//wec:noalloc
func (c *ClusterCache) unlink(e *ccEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

//wec:noalloc
func (c *ClusterCache) moveToFront(e *ccEntry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// localS is local with an optional scratch and cache: the warm query path.
// With a nil cache it is exactly buildLocal. With a cache, a miss fills on
// a private meter and report-only tracker, records the fill's cost and
// symmetric peak on the entry, and a hit replays them:
//
//   - Meter: the fill's Reads/Writes/Ops are merged into the caller's
//     meter on both miss and hit, so totals equal the uncached path's
//     (the build is deterministic per (snapshot, ci)).
//   - Symmetric memory: every Acquire inside a local-graph build is
//     released before buildLocal returns, so a direct call raises the
//     caller's tracker from its current level L to at most L + peak and
//     back to L. Folding the recorded peak in (SymTracker.Fold) produces
//     the same maximum and the same final level, so high-water marks
//     match the uncached path exactly.
//
//wec:noalloc
func (o *Oracle) localS(m *asym.Meter, sym *asym.SymTracker, sc *Scratch, cc *ClusterCache, ci int32) *localGraph {
	if cc == nil {
		return o.buildLocal(m, sym, sc, ci)
	}
	if lg, cost, peak, ok := cc.get(ci); ok {
		m.Merge(cost)
		if sym != nil {
			sym.Fold(int64(peak))
		}
		return lg
	}
	fm := asym.NewMeter(m.Omega())
	fs := asym.NewSymTracker(0)
	lg := o.buildLocal(fm, fs, sc, ci)
	cost := fm.Snapshot()
	peak := int(fs.HighWater())
	lg = cc.put(ci, lg, cost, peak)
	m.Merge(cost)
	if sym != nil {
		sym.Fold(int64(peak))
	}
	return lg
}
