// Package asym implements the Asymmetric RAM cost model of Blelloch et al.
// (and its parallel Asymmetric NP variant) used throughout the paper
// "Implicit Decomposition for Write-Efficient Connectivity Algorithms".
//
// The model has an infinitely large asymmetric memory in which a write costs
// ω ≫ 1 and a read costs 1, plus a small symmetric memory (a cache) whose
// reads and writes are free but whose size is budgeted (O(ω log n) words in
// the paper). The package provides:
//
//   - Meter: a concurrent-safe counter of asymmetric reads, asymmetric
//     writes, and unit-cost operations, from which Work = other + reads +
//     ω·writes is derived.
//   - Array / BitArray: metered asymmetric-memory arrays; every access is
//     charged to a Meter. Rank adds a constant-read rank directory over a
//     BitArray.
//   - SymTracker: a high-water-mark tracker for symmetric-memory usage so the
//     paper's O(k log n)-word budgets are testable.
//
// All counters use atomics so that parallel algorithms (package parallel)
// can share a single Meter. Hot parallel passes do better with one Meter
// per processor, merged once per chunk (Merge); a Meter is padded to two
// cache lines so that such private meters never share one.
package asym

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
)

// DefaultOmega is the write-cost used when a caller does not specify one.
// The paper treats ω as a hardware parameter; projections for PCM and ReRAM
// put it between one and two orders of magnitude (Appendix A).
const DefaultOmega = 64

// Meter accumulates the cost of a computation under the Asymmetric RAM
// model. The zero value is not usable; construct with NewMeter.
type Meter struct {
	omega  int64
	reads  atomic.Int64 // asymmetric-memory reads
	writes atomic.Int64 // asymmetric-memory writes
	ops    atomic.Int64 // other unit-cost operations
	// Padding to 128 bytes: a heap-allocated Meter then owns its cache
	// line (and the adjacent-line prefetch pair), so meters charged from
	// different cores never false-share. Unpadded, the engine's conn and
	// bicc builds, which run in parallel on meters allocated side by side,
	// took ~2× as long whenever both meters landed on one line.
	_ [128 - 4*8]byte
}

// NewMeter returns a Meter charging each asymmetric write cost omega.
// omega < 1 is treated as 1 (the symmetric-cost RAM model).
func NewMeter(omega int) *Meter {
	if omega < 1 {
		omega = 1
	}
	return &Meter{omega: int64(omega)}
}

// Omega returns the write cost ω this meter charges.
func (m *Meter) Omega() int { return int(m.omega) }

// Read charges n asymmetric-memory reads.
func (m *Meter) Read(n int) { m.reads.Add(int64(n)) }

// Write charges n asymmetric-memory writes.
func (m *Meter) Write(n int) { m.writes.Add(int64(n)) }

// Op charges n unit-cost operations (arithmetic, branches, symmetric-memory
// traffic beyond what is already implied by reads).
func (m *Meter) Op(n int) { m.ops.Add(int64(n)) }

// Reads returns the number of asymmetric reads charged so far.
func (m *Meter) Reads() int64 { return m.reads.Load() }

// Writes returns the number of asymmetric writes charged so far.
func (m *Meter) Writes() int64 { return m.writes.Load() }

// Ops returns the number of other unit-cost operations charged so far.
func (m *Meter) Ops() int64 { return m.ops.Load() }

// Work returns reads + ops + ω·writes, the Asymmetric RAM time (equivalently
// the Asymmetric NP work) of everything charged to the meter.
func (m *Meter) Work() int64 {
	return m.reads.Load() + m.ops.Load() + m.omega*m.writes.Load()
}

// Merge folds a cost snapshot into the meter: reads, writes, and ops are
// added to the running counters. It is the aggregation half of the
// per-worker metering pattern used by the serving layer (package serve):
// each worker charges queries to a private Meter so no mutable cost-model
// state is shared mid-flight, then merges its totals into a long-lived
// aggregate meter once the batch completes. Safe for concurrent use.
func (m *Meter) Merge(c Cost) {
	m.reads.Add(c.Reads)
	m.writes.Add(c.Writes)
	m.ops.Add(c.Ops)
}

// Reset zeroes all counters, keeping ω.
func (m *Meter) Reset() {
	m.reads.Store(0)
	m.writes.Store(0)
	m.ops.Store(0)
}

// Snapshot captures the current counter values.
func (m *Meter) Snapshot() Cost {
	return Cost{
		Omega:  int(m.omega),
		Reads:  m.reads.Load(),
		Writes: m.writes.Load(),
		Ops:    m.ops.Load(),
	}
}

// Cost is an immutable snapshot of a Meter.
type Cost struct {
	Omega  int
	Reads  int64
	Writes int64
	Ops    int64
}

// Work returns reads + ops + ω·writes for the snapshot.
func (c Cost) Work() int64 { return c.Reads + c.Ops + int64(c.Omega)*c.Writes }

// Sub returns the component-wise difference c - other; use it to isolate the
// cost of a phase bracketed by two snapshots.
func (c Cost) Sub(other Cost) Cost {
	return Cost{
		Omega:  c.Omega,
		Reads:  c.Reads - other.Reads,
		Writes: c.Writes - other.Writes,
		Ops:    c.Ops - other.Ops,
	}
}

// Add returns the component-wise sum of c and other.
func (c Cost) Add(other Cost) Cost {
	return Cost{
		Omega:  c.Omega,
		Reads:  c.Reads + other.Reads,
		Writes: c.Writes + other.Writes,
		Ops:    c.Ops + other.Ops,
	}
}

// MarshalJSON encodes the snapshot as {"omega","reads","writes","ops","work"}
// with work = Work(), the derived quantity encoding/json cannot see through
// the method. Decoding needs no counterpart: the field names match the
// struct's case-insensitively and "work" is ignored.
func (c Cost) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Omega  int   `json:"omega"`
		Reads  int64 `json:"reads"`
		Writes int64 `json:"writes"`
		Ops    int64 `json:"ops"`
		Work   int64 `json:"work"`
	}{c.Omega, c.Reads, c.Writes, c.Ops, c.Work()})
}

// String formats the cost on one line (reads, writes, ops, work and ω),
// the form in which wecbench prints a construction cost.
func (c Cost) String() string {
	return fmt.Sprintf("reads=%d writes=%d ops=%d work=%d (ω=%d)",
		c.Reads, c.Writes, c.Ops, c.Work(), c.Omega)
}
