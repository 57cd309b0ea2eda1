package main

import (
	"math"
	"sort"
	"time"
)

// Latency-statistics helpers for the -exp serve load generator: one
// nearest-rank percentile implementation (the serve mode once shipped a
// ⌊p·n⌋-1 variant that under-reported fractional ranks).

// latSummary digests one run's latency samples: nearest-rank percentiles
// plus wall-clock throughput. Count is the number of queries the samples
// cover (one sample is typically one batch, not one query).
type latSummary struct {
	Count int64
	Wall  time.Duration
	QPS   float64
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// summarize sorts samples in place and digests them. Percentiles are exact
// (unrounded); display code rounds at the formatting site.
func summarize(samples []time.Duration, count int64, wall time.Duration) latSummary {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	s := latSummary{Count: count, Wall: wall}
	if wall > 0 {
		s.QPS = float64(count) / wall.Seconds()
	}
	s.P50 = pctExact(samples, 0.50)
	s.P90 = pctExact(samples, 0.90)
	s.P99 = pctExact(samples, 0.99)
	s.Max = pctExact(samples, 1.0)
	return s
}

// pctExact returns the p-th percentile of a sorted sample by the
// nearest-rank definition: the ⌈p·n⌉-th smallest value. (The historical
// ⌊p·n⌋-1 index under-reported whenever p·n was fractional — p50 of 101
// samples returned the 50th value instead of the median.)
func pctExact(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
