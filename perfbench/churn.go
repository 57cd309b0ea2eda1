package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Churn workloads run a scripted sequence of windows. Each window first
// publishes its update with Update(wait=true), then answers windowBatches
// strict query batches from the workload's callers. Nothing races: the
// next update starts only after the window's queries returned, so which
// rung every oracle takes, and which query pays a lazy build, depends on
// the seed alone.

// acctWindows is the fixed script prefix the counted metrics are taken
// over, so they do not depend on how many windows fit in the run.
const acctWindows = 16

type churnState struct {
	s       spec
	eng     *serve.Engine
	sc      *script
	queries [][]serve.Query
	tr      *atomic.Pointer[tracer]

	answers [][][]int32 // window -> batch -> answers
	ledger  *updateLedger
	acct    queryCosts // query costs over the accounting prefix
	tried   int64
	failed  int64
	windows int
	first   serve.Stats // read before the first window
	last    serve.Stats // read after the latest window
}

func newChurn(s spec, eng *serve.Engine, sc *script, queries [][]serve.Query, tr *atomic.Pointer[tracer]) *churnState {
	st := eng.Stats()
	return &churnState{s: s, eng: eng, sc: sc, queries: queries, tr: tr, ledger: newLedger(), first: st, last: st}
}

// churnStats is one timed stretch of windows.
type churnStats struct {
	loopStats
	upd summary
}

// run plays windows until d has passed and the stretch has played at
// least the workload's minWindows. Its figures are taken over whole
// slices of windows only (see spec.sliceWindows).
func (cs *churnState) run(d time.Duration) (churnStats, error) {
	var batches []batchSample
	var updLat latencies
	start := time.Now()
	played := 0
	for ; time.Since(start) < d || played < cs.s.minWindows; played++ {
		w := cs.windows
		t := cs.tr.Load()
		before := cs.last
		sp := t.open("serve.engine.update", 0, 0)
		t0 := time.Now()
		_, err := cs.eng.Update(cs.sc.update(w), true)
		updLat.add(time.Since(t0))
		t.finish(sp)
		cs.tried++
		if err != nil {
			return churnStats{}, fmt.Errorf("window %d update: %w", w, err)
		}
		published := cs.eng.Stats()
		batches = append(batches, cs.queryWindow(w, t, start)...)
		cs.last = cs.eng.Stats()
		cs.windows++
		if w < acctWindows {
			cs.ledger.published(before, published)
			cs.ledger.queried(published, cs.last)
		}
		if cs.windows == acctWindows {
			cs.acct = costsBetween(cs.first, cs.last)
		}
	}
	whole := played / cs.s.sliceWindows * cs.s.sliceWindows
	ls := perSlice(batches[:whole*cs.s.windowBatches], cs.s.sliceWindows*cs.s.windowBatches, cs.s.batch, cs.s.tailPct)
	ls.queries, ls.elapsed = int64(len(batches)*cs.s.batch), time.Since(start)
	return churnStats{loopStats: ls, upd: summarize(cs.s.minWindows, updLat[:whole])}, nil
}

// queryWindow answers window w's batches from the workload's callers and
// keeps the answers for verification. Batch completion times count from
// start, the start of the measured stretch.
func (cs *churnState) queryWindow(w int, t *tracer, start time.Time) []batchSample {
	ans := make([][]int32, cs.s.windowBatches)
	samples := make([][]batchSample, cs.s.callers)
	var errs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cs.s.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := c; j < cs.s.windowBatches; j += cs.s.callers {
				qs := cs.queries[windowBatch(cs.s, w, j)]
				sp := t.open("serve.engine.do", 0, 0)
				t0 := time.Now()
				res := cs.eng.Do(qs)
				now := time.Now()
				samples[c] = append(samples[c], batchSample{end: now.Sub(start), ms: ms(now.Sub(t0))})
				t.finish(sp)
				ans[j] = make([]int32, len(qs))
				errs.Add(int64(encode(res, ans[j])))
			}
		}(c)
	}
	wg.Wait()
	cs.answers = append(cs.answers, ans)
	cs.tried += int64(cs.s.windowBatches * cs.s.batch)
	cs.failed += errs.Load()
	var all []batchSample
	for _, l := range samples {
		all = append(all, l...)
	}
	return all
}

// verify rebuilds each window's graph from the script and checks the
// window's answers against a reference on it.
func (cs *churnState) verify(base *graph.Graph) int {
	withBicc := cs.s.connFrac < 1
	baseRef := newReference(base, withBicc)
	baseEdges := base.Edges()
	bad := 0
	for w, ans := range cs.answers {
		var ref *reference
		if w%2 == 1 {
			ref = baseRef.fresh()
		} else {
			ref = newReference(cs.sc.graphAt(base.N(), baseEdges, w), withBicc)
		}
		for j, a := range ans {
			bad += ref.check(cs.queries[windowBatch(cs.s, w, j)], a)
		}
	}
	return bad
}
