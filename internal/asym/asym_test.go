package asym

import (
	"encoding/json"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestMeterWork(t *testing.T) {
	m := NewMeter(10)
	m.Read(3)
	m.Write(2)
	m.Op(5)
	if got := m.Work(); got != 3+5+10*2 {
		t.Fatalf("Work = %d, want 28", got)
	}
	if m.Reads() != 3 || m.Writes() != 2 || m.Ops() != 5 {
		t.Fatalf("counters = %d/%d/%d", m.Reads(), m.Writes(), m.Ops())
	}
}

func TestMeterOmegaFloor(t *testing.T) {
	m := NewMeter(0)
	if m.Omega() != 1 {
		t.Fatalf("omega floor: got %d, want 1", m.Omega())
	}
	m = NewMeter(-5)
	if m.Omega() != 1 {
		t.Fatalf("negative omega: got %d, want 1", m.Omega())
	}
}

func TestMeterReset(t *testing.T) {
	m := NewMeter(4)
	m.Read(1)
	m.Write(1)
	m.Op(1)
	m.Reset()
	if m.Work() != 0 {
		t.Fatalf("after Reset, Work = %d", m.Work())
	}
	if m.Omega() != 4 {
		t.Fatalf("Reset dropped omega: %d", m.Omega())
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter(2)
	var wg sync.WaitGroup
	const gor, per = 8, 1000
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Read(1)
				m.Write(1)
			}
		}()
	}
	wg.Wait()
	if m.Reads() != gor*per || m.Writes() != gor*per {
		t.Fatalf("lost updates: reads=%d writes=%d", m.Reads(), m.Writes())
	}
}

func TestMeterMerge(t *testing.T) {
	// The per-worker pattern of package serve: workers meter privately,
	// then merge into a shared aggregate.
	agg := NewMeter(8)
	agg.Read(1) // pre-existing traffic survives merges
	w1, w2 := NewMeter(8), NewMeter(8)
	w1.Read(10)
	w1.Write(2)
	w1.Op(5)
	w2.Read(100)
	w2.Write(1)
	agg.Merge(w1.Snapshot())
	agg.Merge(w2.Snapshot())
	if agg.Reads() != 111 || agg.Writes() != 3 || agg.Ops() != 5 {
		t.Fatalf("merge: %v", agg.Snapshot())
	}
	if want := int64(111 + 5 + 8*3); agg.Work() != want {
		t.Fatalf("work after merge = %d, want %d", agg.Work(), want)
	}
}

func TestMeterMergeConcurrent(t *testing.T) {
	agg := NewMeter(4)
	var wg sync.WaitGroup
	const gor = 8
	for g := 0; g < gor; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := NewMeter(4)
			w.Read(7)
			w.Write(3)
			agg.Merge(w.Snapshot())
		}()
	}
	wg.Wait()
	if agg.Reads() != 7*gor || agg.Writes() != 3*gor {
		t.Fatalf("concurrent merge lost updates: %v", agg.Snapshot())
	}
}

// TestMeterPadded guards the padding that keeps per-processor meters off
// each other's cache lines: a Meter spans whole 64-byte lines.
func TestMeterPadded(t *testing.T) {
	if sz := unsafe.Sizeof(Meter{}); sz%64 != 0 {
		t.Fatalf("unsafe.Sizeof(Meter{}) = %d, not a multiple of 64", sz)
	}
}

func TestCostSubAdd(t *testing.T) {
	m := NewMeter(8)
	m.Read(10)
	before := m.Snapshot()
	m.Write(3)
	m.Op(7)
	after := m.Snapshot()
	d := after.Sub(before)
	if d.Reads != 0 || d.Writes != 3 || d.Ops != 7 {
		t.Fatalf("Sub = %+v", d)
	}
	s := before.Add(d)
	if s.Reads != after.Reads || s.Writes != after.Writes || s.Ops != after.Ops {
		t.Fatalf("Add mismatch: %+v vs %+v", s, after)
	}
	if d.Work() != 0+7+8*3 {
		t.Fatalf("Cost.Work = %d", d.Work())
	}
}

func TestCostString(t *testing.T) {
	c := Cost{Omega: 2, Reads: 1, Writes: 1, Ops: 1}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

// TestCostMarshalRoundTrip pins the wire shape of a Cost (the leaf of every
// /stats and /info cost object) and that decoding restores the counters.
func TestCostMarshalRoundTrip(t *testing.T) {
	c := Cost{Omega: 8, Reads: 3, Writes: 2, Ops: 5}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"omega":8,"reads":3,"writes":2,"ops":5,"work":24}`; string(b) != want {
		t.Fatalf("Marshal = %s, want %s", b, want)
	}
	var back Cost
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Fatalf("round trip = %+v, want %+v", back, c)
	}
}

func TestArrayMetering(t *testing.T) {
	m := NewMeter(5)
	a := NewArray(m, 10)
	if a.Len() != 10 {
		t.Fatalf("Len = %d", a.Len())
	}
	a.Set(3, 42)
	if got := a.Get(3); got != 42 {
		t.Fatalf("Get = %d", got)
	}
	if m.Writes() != 1 || m.Reads() != 1 {
		t.Fatalf("metering: writes=%d reads=%d", m.Writes(), m.Reads())
	}
	a.Fill(7)
	if m.Writes() != 11 {
		t.Fatalf("Fill metering: writes=%d, want 11", m.Writes())
	}
	for i := 0; i < 10; i++ {
		if a.Raw()[i] != 7 {
			t.Fatalf("Fill missed index %d", i)
		}
	}
	if a.Meter() != m {
		t.Fatal("Meter() identity")
	}
}

func TestArray64(t *testing.T) {
	m := NewMeter(5)
	a := NewArray64(m, 4)
	a.Set(0, 1<<40)
	if a.Get(0) != 1<<40 {
		t.Fatal("Array64 round trip")
	}
	a.Fill(-1)
	if a.Len() != 4 || a.Raw()[3] != -1 {
		t.Fatal("Array64 Fill")
	}
	if m.Writes() != 1+4 {
		t.Fatalf("Array64 metering: %d", m.Writes())
	}
}

func TestBitArray(t *testing.T) {
	m := NewMeter(3)
	b := NewBitArray(m, 130) // spans three words
	if b.Len() != 130 {
		t.Fatalf("Len = %d", b.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		b.Set(i, true)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
		b.Set(i, false)
		if b.Get(i) {
			t.Fatalf("bit %d not cleared", i)
		}
	}
	if m.Writes() == 0 || m.Reads() == 0 {
		t.Fatal("BitArray did not meter")
	}
}

func TestBitArrayProperty(t *testing.T) {
	// Property: a BitArray behaves like a []bool under any Set sequence.
	f := func(ops []uint16) bool {
		m := NewMeter(1)
		b := NewBitArray(m, 256)
		ref := make([]bool, 256)
		for _, op := range ops {
			i := int(op % 256)
			v := op&0x8000 != 0
			b.Set(i, v)
			ref[i] = v
		}
		for i := range ref {
			if b.RawGet(i) != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymTracker(t *testing.T) {
	s := NewSymTracker(100)
	if !s.Acquire(60) {
		t.Fatal("within limit rejected")
	}
	if !s.Acquire(40) {
		t.Fatal("at limit rejected")
	}
	if s.Acquire(1) {
		t.Fatal("over limit accepted")
	}
	s.Release(101)
	if s.Current() != 0 {
		t.Fatalf("Current = %d after over-release", s.Current())
	}
	if s.HighWater() != 101 {
		t.Fatalf("HighWater = %d, want 101", s.HighWater())
	}
	s.Reset()
	if s.HighWater() != 0 || s.Current() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSymTrackerUnlimited(t *testing.T) {
	s := NewSymTracker(0)
	if !s.Acquire(1 << 30) {
		t.Fatal("unlimited tracker rejected")
	}
}

func TestSymTrackerConcurrent(t *testing.T) {
	s := NewSymTracker(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Acquire(2)
				s.Release(2)
			}
		}()
	}
	wg.Wait()
	if s.Current() != 0 {
		t.Fatalf("Current = %d, want 0", s.Current())
	}
}

// TestSymTrackerFold checks that a folded per-processor peak lifts the
// high-water by max on top of the current level, exactly as acquiring and
// releasing those words on the tracker itself would.
func TestSymTrackerFold(t *testing.T) {
	s := NewSymTracker(0)
	s.Acquire(10)
	s.Fold(30)
	s.Fold(20)
	if s.HighWater() != 40 || s.Current() != 10 {
		t.Fatalf("after folds 30, 20 at level 10: high=%d cur=%d, want 40, 10", s.HighWater(), s.Current())
	}
	s.Release(10)
	s.Fold(35)
	if s.HighWater() != 40 {
		t.Fatalf("a fold below the high-water moved it: %d", s.HighWater())
	}
}

func TestProjectedTime(t *testing.T) {
	// W=1000, D=10: sequential time 1010; with many processors the depth
	// floor dominates.
	if got := ProjectedTime(1000, 10, 1); got != 1010 {
		t.Fatalf("P=1: %d", got)
	}
	if got := ProjectedTime(1000, 10, 100); got != 20 {
		t.Fatalf("P=100: %d", got)
	}
	if got := ProjectedTime(1000, 10, 0); got != 1010 {
		t.Fatalf("P=0 clamps to 1: %d", got)
	}
}

func TestProjectedSpeedupMonotone(t *testing.T) {
	prev := 0.0
	for _, p := range []int{1, 2, 4, 8, 1 << 20} {
		s := ProjectedSpeedup(1_000_000, 500, p)
		if s < prev {
			t.Fatalf("speedup not monotone at P=%d", p)
		}
		prev = s
	}
	// Amdahl-style ceiling: speedup can never exceed (W+D)/D.
	if s := ProjectedSpeedup(1_000_000, 500, 1<<30); s > 1_000_500.0/500.0+1 {
		t.Fatalf("speedup above depth ceiling: %f", s)
	}
}

func TestRank(t *testing.T) {
	// Property: Index agrees with a linear count of the set bits before i,
	// at one read for a clear bit and two for a set one, on lengths that
	// do and do not fill their last word.
	f := func(set []uint16, n uint8) bool {
		size := 1 + int(n)%200
		m := NewMeter(1)
		b := NewBitArray(m, size)
		for _, i := range set {
			b.Set(int(i)%size, true)
		}
		words := (size + 63) / 64
		before := m.Snapshot()
		r := NewRank(b)
		if d := m.Snapshot().Sub(before); d.Reads != int64(words) || d.Writes != int64(words) {
			return false
		}
		rank := 0
		for i := 0; i < size; i++ {
			qm := NewMeter(1)
			got := r.Index(qm, i)
			if !b.RawGet(i) {
				if got != -1 || qm.Reads() != 1 {
					return false
				}
				continue
			}
			if got != rank || qm.Reads() != 2 {
				return false
			}
			rank++
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
