package asym

import "sync"

// SymTracker accounts for symmetric-memory (cache) usage in words. The paper
// requires the symmetric memory to stay within O(ω log n) words for the dense
// algorithms and O(k log n) = O(√ω log n) words for the oracle constructions;
// tracking a high-water mark makes those budgets testable.
//
// Usage pattern: each task Acquires words for its scratch (BFS queue, local
// graph, cluster buffer) and Releases them when the scratch is discarded.
// The tracker records the maximum simultaneous total.
type SymTracker struct {
	mu    sync.Mutex
	cur   int64
	high  int64
	limit int64 // 0 = unlimited
}

// NewSymTracker returns a tracker with the given word limit; limit 0 means
// report-only (no limit enforced).
func NewSymTracker(limit int) *SymTracker {
	return &SymTracker{limit: int64(limit)}
}

// Acquire reserves n words of symmetric memory. It returns false when a
// limit is set and would be exceeded; callers in this repository treat that
// as a bug (the paper proves the budgets suffice) and tests assert it never
// happens.
func (t *SymTracker) Acquire(n int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur += int64(n)
	if t.cur > t.high {
		t.high = t.cur
	}
	return t.limit == 0 || t.cur <= t.limit
}

// Release returns n words of symmetric memory.
func (t *SymTracker) Release(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur -= int64(n)
	if t.cur < 0 {
		t.cur = 0
	}
}

// Fold records that a computation charged to another tracker peaked at
// peak words while t held its current words: t's high-water becomes at
// least current + peak, and its current level does not move. In the
// Asymmetric NP model every processor owns its symmetric memory, so a pass
// split across processors folds each processor's peak in by max, never by
// sum; a pass run on one processor reaches the same high-water as with
// per-task acquires on t itself. Safe for concurrent use.
func (t *SymTracker) Fold(peak int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur+peak > t.high {
		t.high = t.cur + peak
	}
}

// HighWater returns the maximum simultaneous words acquired.
func (t *SymTracker) HighWater() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.high
}

// Current returns the currently acquired words.
func (t *SymTracker) Current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// Reset zeroes the tracker, keeping the limit.
func (t *SymTracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur, t.high = 0, 0
}
