package main

import (
	"math"
	"sort"
	"time"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so the benchmark's own repeat mode reports the same spreads as a Python
// reading of the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m, n := len(d), len(d)+1, 4
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// percentile returns the p-th percentile (0 < p < 100) of sorted by the
// nearest-rank rule.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// tailCandidates are the percentiles a tail metric may report, highest
// first. The tail rule takes the highest one with at least minBeyond
// samples above it: p99 needs 1000 samples, p90 100, p75 40; below 40
// samples the median is all that can be reported honestly. The rule is
// applied to the number of samples a measurement is guaranteed to collect
// (its minimum), not to the number it happened to collect, so which
// percentile a metric reports is a property of the workload and does not
// flip between runs on a faster or slower machine.
var tailCandidates = []float64{99, 90, 75, 50}

const minBeyond = 10

// tailPercentile applies the tail rule to a guaranteed sample count.
func tailPercentile(samples int) float64 {
	for _, p := range tailCandidates {
		if float64(samples)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// latencies collects one closed-loop caller's request latencies.
type latencies []float64 // milliseconds

func (l *latencies) add(d time.Duration) { *l = append(*l, ms(d)) }

// summary is a latency distribution reduced to the reported figures.
type summary struct {
	P50, Tail float64
	TailPct   float64 // which percentile Tail is
	Samples   int
}

// batchSample is one answered batch of a timed loop: when it completed,
// counted from the start of the loop, and its latency.
type batchSample struct {
	end time.Duration
	ms  float64
}

// loopStats is one timed loop's outcome.
type loopStats struct {
	queries int64 // answered in the whole loop
	elapsed time.Duration
	qps     float64 // median over slices
	lat     summary // median over slices of each slice's median and tail
	slices  int
}

// perSlice reduces a timed loop's batches to its reported figures. The
// batches, in order of completion, are cut into consecutive slices of size
// batches each (a partial last slice is dropped); qps, the median latency
// and the tailPct-th percentile latency are each the median over slices of
// that slice's figure. The host is a shared VM that takes the CPU away in
// bursts: a burst moves a whole-run rate and tail, but it moves a median
// over slices only when it covers half of them.
func perSlice(samples []batchSample, size, batchQueries int, tailPct float64) loopStats {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	ls := loopStats{lat: summary{TailPct: tailPct, Samples: len(samples)}}
	var qps, p50, tail []float64
	prev := time.Duration(0)
	for lo := 0; lo+size <= len(samples); lo += size {
		sl := samples[lo : lo+size]
		end := sl[size-1].end
		lat := make([]float64, size)
		for i, s := range sl {
			lat[i] = s.ms
		}
		sort.Float64s(lat)
		qps = append(qps, ratio(float64(size*batchQueries), (end-prev).Seconds()))
		p50 = append(p50, percentile(lat, 50))
		tail = append(tail, percentile(lat, ls.lat.TailPct))
		prev = end
	}
	ls.slices = len(qps)
	_, ls.qps, _ = quartiles(qps)
	_, ls.lat.P50, _ = quartiles(p50)
	_, ls.lat.Tail, _ = quartiles(tail)
	return ls
}

// summarize reduces samples collected by a measurement guaranteed to take
// at least floor of them.
func summarize(floor int, parts ...latencies) summary {
	var all []float64
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Float64s(all)
	tp := tailPercentile(floor)
	return summary{P50: percentile(all, 50), Tail: percentile(all, tp), TailPct: tp, Samples: len(all)}
}
