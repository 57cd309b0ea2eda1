package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span recording for the traced run. Spans are taken by the benchmark's
// own code around each call into a layer of the program, kept in memory
// and written out when the run ends. A nil *tracer records nothing, which
// is how untraced runs skip it at the cost of one nil check per call.

// span is one timed interval. Times are nanoseconds since the tracer
// started. Parent is the enclosing span's id (0 for a root); Req links the
// client and server halves of one HTTP request.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int64  `json:"req,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns it; close it with finish.
func (t *tracer) open(name string, parent, req int64) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.nextID.Add(1), Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))}
}

func (t *tracer) finish(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Name: name, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every recorded span as a JSON array.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part of
// it covered by its children. Overlapping children (a parent waiting on
// two concurrent calls) are counted once, and child time outside the
// parent's interval is ignored.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// spanStat is one span name's aggregate.
type spanStat struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	SelfMs float64 `json:"self_ms"` // mean self time
}

func aggregateSpans(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	type acc struct {
		n        int
		tot, slf time.Duration
	}
	accs := map[string]*acc{}
	for _, s := range spans {
		a := accs[s.Name]
		if a == nil {
			a = &acc{}
			accs[s.Name] = a
		}
		a.n++
		a.tot += s.dur()
		a.slf += self[s.ID]
	}
	out := make(map[string]spanStat, len(accs))
	for name, a := range accs {
		out[name] = spanStat{Count: a.n, MeanMs: ms(a.tot) / float64(a.n), SelfMs: ms(a.slf) / float64(a.n)}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
