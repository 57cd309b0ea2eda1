package serve

import (
	"errors"

	"repro/internal/graph"
)

// This file is the serving layer's durability seam. The engine and
// registry never touch disk themselves; they call these narrow interfaces
// at the three moments that matter — an update batch is accepted, a
// snapshot epoch publishes, a graph is created or deleted — and
// internal/store implements them (cmd/oracled wires the two together, so
// serve stays free of any on-disk format knowledge).
//
// Ordering contract with the engine:
//
//   - LogUpdate is called under the engine's update lock, after the batch
//     validated and BEFORE it is staged: a batch the client saw accepted
//     is in the WAL. A LogUpdate error rejects the batch (ErrPersist →
//     HTTP 500) with nothing staged.
//   - EpochPublished is called from the background rebuild goroutine after
//     each snapshot swap, outside the engine lock, with the published
//     graph and the connectivity oracle's remap table — everything a
//     store needs to write a compacted snapshot. It must tolerate running
//     concurrently with LogUpdate calls for later sequence numbers.
//   - SaveSnapshot is the forced variant (creation-time initial snapshot);
//     its error fails the graph build rather than serving a graph whose
//     durability promise cannot be kept.

// GraphPersister is the durable log of one graph. The dynamic conn state
// handed to EpochPublished/SaveSnapshot — label remap table, maintained
// spanning forest, incremental patch-chain depth — is what store snapshot
// format v2 carries so recovery resumes the update machinery incrementally
// instead of starting a fresh chain.
type GraphPersister interface {
	// LogUpdate durably appends one accepted update batch before the
	// engine stages it. seq is the batch's staging sequence number
	// (monotonic per graph, resuming across restarts).
	LogUpdate(seq int64, add, remove [][2]int32) error
	// EpochPublished records that snapshot epoch `epoch`, folding updates
	// through seq, is now served; implementations use it to append a
	// commit record and to decide WAL compaction. dyn supplies the conn
	// dynamic state on demand — materializing the forest edge list is
	// O(F log F), so implementations call it only when they actually
	// write a snapshot (a compaction trigger fired), not on every epoch.
	EpochPublished(epoch, seq int64, g *graph.Graph, dyn func() (connRemap map[int32]int32, forest [][2]int32, chainDepth int))
	// LogAbort durably records that the staged batches in the inclusive
	// sequence range [fromSeq, toSeq] were dropped by a failed rebuild:
	// their updaters were told they failed, so recovery must not
	// re-apply their logged update records. Called under the engine's
	// update lock, before the batches' staged deltas are released.
	LogAbort(fromSeq, toSeq int64) error
	// SaveSnapshot forces a full snapshot of the given state.
	SaveSnapshot(epoch, seq int64, g *graph.Graph, connRemap map[int32]int32, forest [][2]int32, chainDepth int) error
}

// RegistryPersister records fleet lifecycle events (the durable half of
// the /graphs API).
type RegistryPersister interface {
	// CreateGraph durably registers a graph and returns its persister.
	// specJSON is the creation GraphSpec in its own wire encoding (the
	// registry marshals it), stored so recovery can rebuild the engine
	// with the same parameters.
	CreateGraph(name string, specJSON []byte) (GraphPersister, error)
	// DeleteGraph durably unregisters a graph and removes its data.
	DeleteGraph(name string) error
}

// ErrPersist is returned by Update when the durable log rejects the batch;
// the HTTP layer maps it to 500 (the daemon cannot keep its durability
// promise, which is a server fault, not a client one).
var ErrPersist = errors.New("serve: durable log write failed")

// ErrRebuildFailed wraps a server-side rebuild failure (e.g. an oracle
// rebuild erroring or panicking) reported to wait=true updaters.
// The HTTP layer maps it to 500: the batch was valid, the server failed to
// apply it — the ROADMAP wart of reporting it as a 400 is gone.
var ErrRebuildFailed = errors.New("serve: rebuild failed")

// connDynOf extracts the connectivity oracle's dynamic state from a
// snapshot: the label remap table (nil when empty), the maintained
// spanning forest (nil when the oracle carries none), and the incremental
// patch-chain depth.
func connDynOf(s *snapshot) (remap map[int32]int32, forest [][2]int32, chainDepth int) {
	return s.conn.Remap(), s.conn.ForestEdges(), s.conn.ChainDepth()
}
