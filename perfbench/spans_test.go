package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.batch", Start: 0, End: 100},
		// Two overlapping children cover [10, 60) together: 50, not 70.
		{ID: 2, Parent: 1, Name: "serve.http.handler", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "client.decode", Start: 30, End: 60},
		// A child sticking out of its parent only counts inside it.
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 130},
		// A grandchild reduces its own parent, not the root.
		{ID: 5, Parent: 2, Name: "inner", Start: 20, End: 25},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 100 - 50 - 10, 2: 40 - 5, 3: 30, 4: 40, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestAggregateSpansMeans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.batch", Start: 0, End: 4e6},
		{ID: 2, Parent: 1, Name: "client.decode", Start: 1e6, End: 2e6},
		{ID: 3, Name: "client.batch", Start: 0, End: 2e6},
	}
	agg := aggregateSpans(spans)
	b := agg["client.batch"]
	if b.Count != 2 || b.MeanMs != 3 || b.SelfMs != 2.5 {
		t.Fatalf("client.batch aggregate = %+v, want count 2, mean 3 ms, self 2.5 ms", b)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	sp := tr.open("x", 0, 0)
	tr.finish(sp)
	tr.record("y", 0, 0, time.Now(), time.Now())
	if got := tr.snapshot(); len(got) != 0 {
		t.Fatalf("nil tracer recorded %d spans", len(got))
	}
}
