package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		samples int
		want    float64
	}{
		{5000, 99}, {1000, 99}, {999, 90},
		{100, 90}, {99, 75},
		{40, 75}, {39, 50}, {1, 50},
	}
	for _, c := range cases {
		p := tailPercentile(c.samples)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.samples, p, c.want)
		}
		if beyond := float64(c.samples) * (100 - p) / 100; p != 50 && beyond < minBeyond {
			t.Errorf("tailPercentile(%d) = p%v leaves %.1f samples beyond it", c.samples, p, beyond)
		}
	}
}

func TestSummarizeUsesTheGuaranteedFloor(t *testing.T) {
	var l latencies
	for i := 1; i <= 2000; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	// 2000 samples were taken, but only 320 were guaranteed: the tail is
	// p90, not p99.
	s := summarize(320, l)
	if s.TailPct != 90 || s.Tail != 1800 || s.P50 != 1000 || s.Samples != 2000 {
		t.Fatalf("summarize = %+v, want p90 tail 1800 ms, median 1000 ms over 2000 samples", s)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4).
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 4}, [3]float64{1.8125, 3.75, 7.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.in)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
				break
			}
		}
	}
}

func TestPerSliceTakesMediansOverSlices(t *testing.T) {
	// Five slices of 100 one-query batches, each 10 ms apart and 10 ms
	// long, except that the fourth slice is stalled: its batches take
	// 50 ms and complete 50 ms apart. Seven batches past the last full
	// slice are dropped.
	var samples []batchSample
	end := time.Duration(0)
	for i := 0; i < 507; i++ {
		gap, lat := 10*time.Millisecond, 10.0
		if i/100 == 3 {
			gap, lat = 50*time.Millisecond, 50
		}
		if i%100 == 99 {
			lat += 5 // each slice's slowest batch
		}
		end += gap
		samples = append(samples, batchSample{end: end, ms: lat})
	}
	// Completion order, not arrival order, defines the slices.
	samples[0], samples[506] = samples[506], samples[0]
	ls := perSlice(samples, 100, 1, 90)
	if ls.slices != 5 || ls.lat.Samples != 507 || ls.lat.TailPct != 90 {
		t.Fatalf("perSlice = %+v, want 5 slices over 507 samples with a p90 tail", ls)
	}
	if math.Abs(ls.qps-100) > 1e-9 || ls.lat.P50 != 10 || ls.lat.Tail != 10 {
		t.Errorf("perSlice = %+v, want the unstalled slices' 100 qps, 10 ms median and 10 ms tail", ls)
	}
}

func TestEverySliceLeavesTenBeyondItsTail(t *testing.T) {
	for _, s := range specs {
		size := readSlice
		if s.churn {
			size = s.sliceWindows * s.windowBatches
			if s.minWindows%s.sliceWindows != 0 || s.minWindows < 40 {
				t.Errorf("%s: minWindows %d is not a whole number of %d-window slices of at least 40 updates", s.name, s.minWindows, s.sliceWindows)
			}
		}
		if beyond := float64(size) * (100 - s.tailPct) / 100; beyond < minBeyond {
			t.Errorf("%s: p%v of a %d-batch slice leaves %.1f samples beyond it", s.name, s.tailPct, size, beyond)
		}
	}
}
