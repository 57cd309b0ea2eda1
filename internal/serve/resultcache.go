package serve

import (
	"sync"

	"repro/internal/asym"
)

// This file implements the engine's epoch-keyed hot-pair result cache: a
// fixed-size, striped, direct-mapped table memoizing (kind, u, v) answers
// together with the charged cost and symmetric peak of the query that
// filled them — a hit replays those charges onto the caller's meter and
// tracker, so cached answers are telemetry-identical to recomputed ones
// (the same replay argument as bicc's ClusterCache; see localS).
//
// Epoch keying makes invalidation free: every entry records the built
// epoch of the oracle that answered it, and a probe from a different epoch
// is a miss whose fill simply overwrites the stale slot. Nothing is scanned
// or cleared on a snapshot swap, and a bounded-staleness answer from a
// deferred oracle never serves a strict query for the same key. This table
// is the query path's only result memo: repeats inside one batch hit it
// too.
//
// The table is direct-mapped on purpose: the warm path does one hash, one
// striped lock, one slot compare — no allocation, no LRU bookkeeping. A
// colliding hot pair evicts its predecessor (counted in /stats).

// rcKey identifies one query result within an epoch. agg is the kind's
// aggregate slot, so the key is three int32s — comparable and
// pointer-free.
type rcKey struct {
	agg  int32
	u, v int32
}

// rcVal is one memoized answer — the component label, or 0/1 for a
// boolean kind — with the charges its fill recorded.
type rcVal struct {
	ans  int32
	cost asym.Cost
	peak int64
}

const (
	rcSlots   = 8192 // power of two
	rcStripes = 64   // power of two
)

type rcEntry struct {
	epoch int64
	key   rcKey
	val   rcVal
	full  bool
}

// resultCache is the fixed-size striped table. Zero-value-unusable; build
// with newResultCache.
type resultCache struct {
	mu    []sync.Mutex
	slots []rcEntry
}

func newResultCache() *resultCache {
	return &resultCache{mu: make([]sync.Mutex, rcStripes), slots: make([]rcEntry, rcSlots)}
}

// slotOf maps a key to its slot by multiplicative hashing (Fibonacci
// constant; the inputs are small ints so low-bit mixing matters).
//
//wec:noalloc
func (c *resultCache) slotOf(k rcKey) uint64 {
	h := uint64(uint32(k.agg))*0x9e3779b97f4a7c15 ^ uint64(uint32(k.u))*0xbf58476d1ce4e5b9 ^ uint64(uint32(k.v))*0x94d049bb133111eb
	h ^= h >> 29
	return (h * 0x9e3779b97f4a7c15) >> 32 % rcSlots
}

// get probes for the key under the given epoch.
//
//wec:noalloc
func (c *resultCache) get(epoch int64, k rcKey) (rcVal, bool) {
	slot := c.slotOf(k)
	mu := &c.mu[slot%rcStripes]
	mu.Lock()
	e := &c.slots[slot]
	if !e.full || e.epoch != epoch || e.key != k {
		mu.Unlock()
		return rcVal{}, false
	}
	v := e.val
	mu.Unlock()
	return v, true
}

// put installs a filled answer, unconditionally overwriting the slot
// (stale-epoch and colliding entries alike). Reports whether a live
// same-epoch entry for a *different* key was displaced — the /stats
// eviction counter; overwriting a stale epoch is reclamation, not
// eviction.
//
//wec:noalloc
func (c *resultCache) put(epoch int64, k rcKey, v rcVal) (evicted bool) {
	slot := c.slotOf(k)
	mu := &c.mu[slot%rcStripes]
	mu.Lock()
	e := &c.slots[slot]
	evicted = e.full && e.epoch == epoch && e.key != k
	e.epoch, e.key, e.val, e.full = epoch, k, v, true
	mu.Unlock()
	return evicted
}
