// Package store is the durability layer of the serving daemon: a versioned
// binary snapshot codec, a per-graph append-only update WAL, and a fleet
// manifest, composed into crash recovery for cmd/oracled.
//
// The paper's oracles are cheap to query but expensive to (re)build —
// construction is exactly where the write-efficient decomposition spends
// its budget — so losing the in-memory graph fleet on process death means
// re-paying every construction from flags. The store makes the fleet
// survive: each accepted update batch is appended to a per-graph WAL
// *before* it is staged (so an acknowledged batch is always recoverable),
// snapshots periodically fold the WAL into a single CRC-guarded file
// written with atomic rename-into-place, and a manifest log records graph
// create/delete lifecycle events so the set of graphs itself is durable.
//
// On-disk layout under one data directory:
//
//	<datadir>/
//	  MANIFEST.log             create/delete frames, fleet registration order
//	  graphs/<name>/
//	    spec.json              the creation spec (engine parameters)
//	    snap-<epoch17>.wecs    snapshots, newest-valid wins
//	    wal-<epoch17>.log      WAL segments, rotated at each compaction
//
// Recovery per graph: load the newest snapshot that decodes cleanly, replay
// every WAL segment in epoch order applying update records with seq beyond
// the snapshot's, and stop at the first torn or corrupt frame (the tail
// that was mid-write at the crash). The result is handed to the serving
// layer, which rebuilds oracles over it in the background.
package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/graph"
	"repro/internal/graphio"
)

// Snapshot file format (version 2; version 1 lacks the FOREST section and
// remains readable — see DecodeSnapshot's negotiation):
//
//	magic "WECS" | uvarint version | varint epoch | varint lastSeq
//	GRAPH:   uvarint n, delta-encoded edge list (graphio.AppendEdgesDelta)
//	OVERLAY: uvarint count, per entry varint u, varint v, varint delta
//	REMAP:   uvarint count, per entry varint from, varint to
//	FOREST:  delta-encoded edge list, then varint chainDepth   (v2 only)
//	CRC32-C over everything above, 4 bytes LE
//
// The overlay section lets a snapshot be expressed as base + staged
// multiset delta without materializing the merged graph first; the serving
// daemon writes compacted snapshots with an empty overlay, but the codec
// (and its property tests) treat a populated one as first-class. The remap
// section preserves the connectivity oracle's label-merge table and the
// forest section its maintained spanning forest plus incremental
// patch-chain depth — the durable trace of the incremental update paths —
// so a recovered daemon resumes the dynamic-update machinery (deletion
// absorption, re-base scheduling) where the fleet left off instead of
// starting a fresh chain.

// snapMagic opens every snapshot file.
var snapMagic = []byte("WECS")

// Snapshot format versions. SnapshotVersion is what EncodeSnapshot writes;
// DecodeSnapshot also reads snapshotVersionV1 (pre-forest) so data
// directories written before the forest-field bump survive the upgrade.
const (
	SnapshotVersion   = 2
	snapshotVersionV1 = 1
)

// Snapshot is the durable state of one graph: an immutable base graph, a
// staged edge-multiset overlay on top of it, the connectivity oracle's
// label remap table, and the epoch/seq watermark the state corresponds to.
type Snapshot struct {
	// Epoch is the serving epoch this snapshot captures.
	Epoch int64
	// LastSeq is the highest update-batch sequence number folded into the
	// snapshot; WAL records at or below it are already included.
	LastSeq int64
	// Base is the snapshot's base graph.
	Base *graph.Graph
	// Overlay is a staged multiset delta over Base, keyed by normalized
	// edge (graph.NormEdge): positive = copies added, negative = removed.
	// May be nil/empty (a fully compacted snapshot).
	Overlay map[[2]int32]int
	// Remap is the connectivity oracle's label remap table at Epoch (nil
	// when the oracle had none).
	Remap map[int32]int32
	// Forest is the connectivity oracle's maintained spanning forest at
	// Epoch, normalized and sorted (nil when none was carried — v1
	// snapshots, or a conn-less fleet).
	Forest [][2]int32
	// ChainDepth is the connectivity oracle's incremental patch-chain
	// depth at Epoch (0 for v1 snapshots).
	ChainDepth int
}

// Materialize applies the overlay to the base and returns the effective
// graph the snapshot describes. A snapshot with an empty overlay returns
// the base unchanged.
func (s *Snapshot) Materialize() (*graph.Graph, error) {
	if len(s.Overlay) == 0 {
		return s.Base, nil
	}
	ov := graph.NewOverlay(s.Base)
	var add, remove [][2]int32
	for e, d := range s.Overlay {
		for ; d > 0; d-- {
			add = append(add, e)
		}
		for ; d < 0; d++ {
			remove = append(remove, e)
		}
	}
	if err := ov.AddEdges(add); err != nil {
		return nil, fmt.Errorf("store: overlay: %w", err)
	}
	if err := ov.RemoveEdges(remove); err != nil {
		return nil, fmt.Errorf("store: overlay: %w", err)
	}
	return ov.BuildPlain(), nil
}

// EncodeSnapshot writes s to w in the versioned binary format.
func EncodeSnapshot(w io.Writer, s *Snapshot) error {
	if s.Base == nil {
		return fmt.Errorf("store: snapshot needs a base graph")
	}
	buf := append([]byte(nil), snapMagic...)
	buf = binary.AppendUvarint(buf, SnapshotVersion)
	buf = binary.AppendVarint(buf, s.Epoch)
	buf = binary.AppendVarint(buf, s.LastSeq)

	buf = binary.AppendUvarint(buf, uint64(s.Base.N()))
	var err error
	buf, err = graphio.AppendEdgesDelta(buf, s.Base.Edges())
	if err != nil {
		return err
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.Overlay)))
	for _, e := range sortedOverlayKeys(s.Overlay) {
		buf = binary.AppendVarint(buf, int64(e[0]))
		buf = binary.AppendVarint(buf, int64(e[1]))
		buf = binary.AppendVarint(buf, int64(s.Overlay[e]))
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.Remap)))
	for _, k := range sortedRemapKeys(s.Remap) {
		buf = binary.AppendVarint(buf, int64(k))
		buf = binary.AppendVarint(buf, int64(s.Remap[k]))
	}

	// v2: the maintained spanning forest (normalized+sorted, so the delta
	// codec applies) and the incremental patch-chain depth.
	buf, err = graphio.AppendEdgesDelta(buf, s.Forest)
	if err != nil {
		return fmt.Errorf("store: forest: %w", err)
	}
	buf = binary.AppendVarint(buf, int64(s.ChainDepth))

	buf = binary.LittleEndian.AppendUint32(buf, graphio.Checksum(buf))
	_, err = w.Write(buf)
	return err
}

// DecodeSnapshot reads a snapshot written by EncodeSnapshot, verifying the
// trailing checksum before parsing anything. Truncation, bit corruption,
// wrong magic, and unknown versions all fail with an error wrapping
// graphio.ErrCorrupt or a version error; no partial snapshot is returned.
func DecodeSnapshot(r io.Reader) (*Snapshot, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(raw) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: snapshot too short (%d bytes)", graphio.ErrCorrupt, len(raw))
	}
	body, sum := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if graphio.Checksum(body) != sum {
		return nil, fmt.Errorf("%w: snapshot checksum mismatch", graphio.ErrCorrupt)
	}
	if string(body[:len(snapMagic)]) != string(snapMagic) {
		return nil, fmt.Errorf("%w: bad snapshot magic", graphio.ErrCorrupt)
	}
	b := body[len(snapMagic):]

	version, b, err := ruv(b)
	if err != nil {
		return nil, err
	}
	// Version negotiation: the current version and its direct predecessor
	// decode (v1 simply lacks the forest section), anything else is
	// rejected — a v3 writer that changes earlier sections would otherwise
	// misparse silently.
	if version != SnapshotVersion && version != snapshotVersionV1 {
		return nil, fmt.Errorf("store: unsupported snapshot version %d (reads %d and %d)",
			version, snapshotVersionV1, SnapshotVersion)
	}
	epoch, b, err := rv(b)
	if err != nil {
		return nil, err
	}
	lastSeq, b, err := rv(b)
	if err != nil {
		return nil, err
	}

	n, b, err := ruv(b)
	if err != nil {
		return nil, err
	}
	if n > 1<<31 {
		return nil, fmt.Errorf("%w: implausible n=%d", graphio.ErrCorrupt, n)
	}
	edges, b, err := graphio.DecodeEdgesDelta(b)
	if err != nil {
		return nil, err
	}
	for _, e := range edges {
		if uint64(e[1]) >= n {
			return nil, fmt.Errorf("%w: edge (%d,%d) out of range n=%d", graphio.ErrCorrupt, e[0], e[1], n)
		}
	}

	ovCount, b, err := ruv(b)
	if err != nil {
		return nil, err
	}
	if ovCount > uint64(len(b)) {
		return nil, fmt.Errorf("%w: overlay count %d exceeds %d remaining bytes", graphio.ErrCorrupt, ovCount, len(b))
	}
	var overlay map[[2]int32]int
	if ovCount > 0 {
		overlay = make(map[[2]int32]int, ovCount)
	}
	for i := uint64(0); i < ovCount; i++ {
		var u, v, d int64
		if u, b, err = rv(b); err != nil {
			return nil, err
		}
		if v, b, err = rv(b); err != nil {
			return nil, err
		}
		if d, b, err = rv(b); err != nil {
			return nil, err
		}
		if u < 0 || v < u || uint64(v) >= n {
			return nil, fmt.Errorf("%w: overlay edge (%d,%d) invalid for n=%d", graphio.ErrCorrupt, u, v, n)
		}
		overlay[[2]int32{int32(u), int32(v)}] = int(d)
	}

	rmCount, b, err := ruv(b)
	if err != nil {
		return nil, err
	}
	if rmCount > uint64(len(b)) {
		return nil, fmt.Errorf("%w: remap count %d exceeds %d remaining bytes", graphio.ErrCorrupt, rmCount, len(b))
	}
	var remap map[int32]int32
	if rmCount > 0 {
		remap = make(map[int32]int32, rmCount)
	}
	for i := uint64(0); i < rmCount; i++ {
		var from, to int64
		if from, b, err = rv(b); err != nil {
			return nil, err
		}
		if to, b, err = rv(b); err != nil {
			return nil, err
		}
		remap[int32(from)] = int32(to)
	}

	var forest [][2]int32
	var chainDepth int64
	if version >= SnapshotVersion {
		forest, b, err = graphio.DecodeEdgesDelta(b)
		if err != nil {
			return nil, err
		}
		for _, e := range forest {
			if uint64(e[1]) >= n {
				return nil, fmt.Errorf("%w: forest edge (%d,%d) out of range n=%d", graphio.ErrCorrupt, e[0], e[1], n)
			}
		}
		if chainDepth, b, err = rv(b); err != nil {
			return nil, err
		}
		if chainDepth < 0 {
			return nil, fmt.Errorf("%w: negative chain depth %d", graphio.ErrCorrupt, chainDepth)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after snapshot", graphio.ErrCorrupt, len(b))
	}

	return &Snapshot{
		Epoch:      epoch,
		LastSeq:    lastSeq,
		Base:       graph.FromEdges(int(n), edges),
		Overlay:    overlay,
		Remap:      remap,
		Forest:     forest,
		ChainDepth: int(chainDepth),
	}, nil
}

// WriteSnapshotFile encodes s and installs it in dir as snap-<epoch>.wecs
// using the tmp-write + fsync + atomic-rename + directory-fsync discipline:
// the final name only ever points at a complete, checksummed file.
func WriteSnapshotFile(dir string, s *Snapshot) (string, error) {
	final := filepath.Join(dir, snapshotName(s.Epoch))
	tmp, err := os.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := EncodeSnapshot(tmp, s); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return "", err
	}
	return final, syncDir(dir)
}

// snapshotName formats the snapshot filename for an epoch; the zero-padded
// decimal keeps lexicographic order equal to epoch order.
func snapshotName(epoch int64) string { return fmt.Sprintf("snap-%017d.wecs", epoch) }

// walName formats a WAL segment filename; segments are ordered the same
// way.
func walName(epoch int64) string { return fmt.Sprintf("wal-%017d.log", epoch) }

// syncDir fsyncs a directory so a just-renamed or just-created entry
// survives power loss (process-death durability does not need it, but the
// rename-into-place contract promises the stronger property).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func sortedOverlayKeys(m map[[2]int32]int) [][2]int32 {
	keys := make([][2]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	return keys
}

func sortedRemapKeys(m map[int32]int32) []int32 {
	keys := make([]int32, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ruv / rv are the package-local varint readers (byte-slice cursors).
func ruv(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated uvarint", graphio.ErrCorrupt)
	}
	return x, b[n:], nil
}

func rv(b []byte) (int64, []byte, error) {
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: truncated varint", graphio.ErrCorrupt)
	}
	return x, b[n:], nil
}
