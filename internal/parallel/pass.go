package parallel

import "repro/internal/asym"

// Worker is one processor's private cost state in a Pass: its own meter
// and symmetric-memory tracker (Sym is nil when the pass tracks none).
// Build passes embed it in their per-worker state, next to the search
// scratch and whatever the worker hands back to the sequential code.
type Worker struct {
	M   *asym.Meter
	Sym *asym.SymTracker
}

// NewWorker returns a worker whose meter charges writes omega, with a
// tracker when trackSym is set.
func NewWorker(omega int, trackSym bool) Worker {
	w := Worker{M: asym.NewMeter(omega)}
	if trackSym {
		w.Sym = asym.NewSymTracker(0)
	}
	return w
}

func (w *Worker) worker() *Worker { return w }

// PassWorker is a pointer to a type that embeds Worker.
type PassWorker interface{ worker() *Worker }

// Pass runs body over [0,n) in one contiguous chunk per worker of ws
// (c.ForEachChunk). A chunk charges only its worker's meter and tracker,
// through wc, which also records the chunk's depth. When
// the chunk ends, its costs merge into m (one Merge per chunk) and its
// symmetric peak folds into c.Sym() by max, since in the Asymmetric NP
// model each processor owns its symmetric memory. A pass therefore charges
// exactly what one sequential loop would, whatever the worker count, and
// adds to c's depth the deepest chunk plus the fork spine over the chunks.
func Pass[W PassWorker](c *Ctx, m *asym.Meter, ws []W, n int, body func(w W, wc *Ctx, lo, hi int)) {
	sym, grain := c.Sym(), c.grain
	chunk := (n + len(ws) - 1) / len(ws)
	c.ForEachChunk(n, chunk, func(cc *Ctx, lo, hi int) {
		w := ws[lo/chunk]
		pw := w.worker()
		wc := &Ctx{meter: pw.M, sym: pw.Sym, grain: grain}
		body(w, wc, lo, hi)
		cc.depth += wc.depth
		m.Merge(pw.M.Snapshot())
		pw.M.Reset()
		if sym != nil {
			sym.Fold(pw.Sym.HighWater())
			pw.Sym.Reset()
		}
	})
}
