package main

import (
	"testing"
	"time"
)

// TestPctNearestRank is the regression test for the percentile index bug:
// int(p*n)-1 under-reported whenever p·n was fractional (p50 of 101
// samples returned the 50th value, not the median).
func TestPctNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{101, 0.50, 51 * time.Millisecond}, // median of odd-length input
		{101, 0.90, 91 * time.Millisecond}, // ceil(90.9) = 91st value
		{101, 0.99, 100 * time.Millisecond},
		{101, 1.00, 101 * time.Millisecond},
		{100, 0.50, 50 * time.Millisecond}, // exact rank unchanged
		{3, 0.50, 2 * time.Millisecond},
		{1, 0.50, 1 * time.Millisecond},
		{2, 0.99, 2 * time.Millisecond},
	} {
		if got := pctExact(ladder(tc.n), tc.p); got != tc.want {
			t.Errorf("pctExact(n=%d, p=%.2f) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
	if got := pctExact(nil, 0.5); got != 0 {
		t.Errorf("pctExact(empty) = %v, want 0", got)
	}
}

// TestSummarize checks the shared digest: unsorted input, exact
// (unrounded) percentiles, and QPS derived from count/wall rather than the
// sample count.
func TestSummarize(t *testing.T) {
	samples := []time.Duration{
		5 * time.Millisecond, 1 * time.Millisecond, 3 * time.Millisecond,
		2 * time.Millisecond, 4 * time.Millisecond,
	}
	s := summarize(samples, 1000, 2*time.Second)
	if s.Count != 1000 || s.Wall != 2*time.Second {
		t.Fatalf("count/wall not carried: %+v", s)
	}
	if s.QPS != 500 {
		t.Errorf("QPS = %v, want 500", s.QPS)
	}
	if s.P50 != 3*time.Millisecond {
		t.Errorf("P50 = %v, want 3ms", s.P50)
	}
	if s.P90 != 5*time.Millisecond || s.P99 != 5*time.Millisecond || s.Max != 5*time.Millisecond {
		t.Errorf("tail percentiles wrong: %+v", s)
	}
	// Percentiles must not be rounded (777µs survives intact).
	odd := []time.Duration{777 * time.Microsecond}
	if got := summarize(odd, 1, time.Second).P50; got != 777*time.Microsecond {
		t.Errorf("P50 rounded: %v", got)
	}
	// Empty sample set: zero percentiles, no panic.
	z := summarize(nil, 0, 0)
	if z.P50 != 0 || z.QPS != 0 {
		t.Errorf("empty summarize = %+v", z)
	}
}

func ladder(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		s[i] = time.Duration(i+1) * time.Millisecond
	}
	return s
}
