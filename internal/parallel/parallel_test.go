package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/asym"
)

func newCtx() *Ctx {
	return NewCtx(asym.NewMeter(8), asym.NewSymTracker(0))
}

func TestFork2RunsBoth(t *testing.T) {
	c := newCtx()
	var a, b bool
	c.Fork2(func(*Ctx) { a = true }, func(*Ctx) { b = true })
	if !a || !b {
		t.Fatalf("fork children ran: %v %v", a, b)
	}
}

func TestFork2DepthIsMax(t *testing.T) {
	c := newCtx()
	c.Fork2(
		func(cc *Ctx) { cc.AddDepth(100) },
		func(cc *Ctx) { cc.AddDepth(5) },
	)
	if c.Depth() != 101 {
		t.Fatalf("depth = %d, want max(100,5)+1 = 101", c.Depth())
	}
}

func TestForCoversRange(t *testing.T) {
	c := newCtx()
	n := 1000
	seen := make([]atomic.Int32, n)
	c.For(0, n, func(_ *Ctx, i int) { seen[i].Add(1) })
	for i := range seen {
		if seen[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, seen[i].Load())
		}
	}
}

func TestForEmptyAndReversed(t *testing.T) {
	c := newCtx()
	ran := false
	c.For(5, 5, func(*Ctx, int) { ran = true })
	c.For(7, 3, func(*Ctx, int) { ran = true })
	if ran {
		t.Fatal("body ran on empty range")
	}
}

func TestForDepthLogarithmic(t *testing.T) {
	// With unit-depth bodies, For's depth must be O(grain + log n), far
	// below n. This is the property Lemma 3.7 and Theorem 4.2 depend on.
	c := newCtx()
	c.SetGrain(1)
	n := 1 << 12
	c.For(0, n, func(cc *Ctx, i int) { cc.AddDepth(1) })
	if c.Depth() > 64 {
		t.Fatalf("depth = %d for n=%d; want O(log n)", c.Depth(), n)
	}
}

func TestForEachChunk(t *testing.T) {
	c := newCtx()
	var total atomic.Int64
	c.ForEachChunk(1000, 64, func(_ *Ctx, lo, hi int) {
		total.Add(int64(hi - lo))
	})
	if total.Load() != 1000 {
		t.Fatalf("chunks covered %d elements, want 1000", total.Load())
	}
}

func TestReduceSum(t *testing.T) {
	c := newCtx()
	n := 1234
	got := Reduce(c, n, func(i int) int64 { return int64(i) },
		func(a, b int64) int64 { return a + b })
	want := int64(n*(n-1)) / 2
	if got != want {
		t.Fatalf("Reduce = %d, want %d", got, want)
	}
}

func TestReduceEmpty(t *testing.T) {
	c := newCtx()
	if got := Reduce(c, 0, func(int) int64 { panic("leaf called") },
		func(a, b int64) int64 { return a + b }); got != 0 {
		t.Fatalf("Reduce(0) = %d", got)
	}
}

func TestReduceMax(t *testing.T) {
	c := newCtx()
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	got := Reduce(c, len(vals), func(i int) int64 { return vals[i] },
		func(a, b int64) int64 {
			if a > b {
				return a
			}
			return b
		})
	if got != 9 {
		t.Fatalf("Reduce max = %d", got)
	}
}

func TestScanMatchesSequential(t *testing.T) {
	c := newCtx()
	c.SetGrain(4)
	in := []int64{5, 3, 0, 2, 7, 1, 1, 1, 9}
	out, total := Scan(c, in)
	var s int64
	for i, v := range in {
		if out[i] != s {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], s)
		}
		s += v
	}
	if total != s {
		t.Fatalf("total = %d, want %d", total, s)
	}
}

func TestScanEmpty(t *testing.T) {
	c := newCtx()
	out, total := Scan(c, nil)
	if len(out) != 0 || total != 0 {
		t.Fatal("Scan(nil) nonzero")
	}
}

func TestScanProperty(t *testing.T) {
	f := func(in []int16) bool {
		c := newCtx()
		c.SetGrain(3)
		xs := make([]int64, len(in))
		for i, v := range in {
			xs[i] = int64(v)
		}
		out, total := Scan(c, xs)
		var s int64
		for i := range xs {
			if out[i] != s {
				return false
			}
			s += xs[i]
		}
		return total == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFilterOrderedAndComplete(t *testing.T) {
	c := newCtx()
	n := 500
	got := Filter(c, n, func(i int) bool { return i%3 == 0 })
	want := 0
	for i := 0; i < n; i += 3 {
		if got[want] != i {
			t.Fatalf("slot %d = %d, want %d", want, got[want], i)
		}
		want++
	}
	if len(got) != want {
		t.Fatalf("count = %d, want %d", len(got), want)
	}
}

func TestFilterEmpty(t *testing.T) {
	c := newCtx()
	if got := Filter(c, 0, func(int) bool { return true }); len(got) != 0 {
		t.Fatalf("count = %d", len(got))
	}
}

func TestFilterNonePass(t *testing.T) {
	c := newCtx()
	if got := Filter(c, 100, func(int) bool { return false }); len(got) != 0 {
		t.Fatalf("count = %d", len(got))
	}
}

func TestFilterWriteEfficiency(t *testing.T) {
	// Writes must be proportional to the output, not the input.
	c := newCtx()
	before := c.Meter().Writes()
	out := Filter(c, 10000, func(i int) bool { return i%100 == 0 })
	writes := c.Meter().Writes() - before
	if writes > int64(2*len(out)) {
		t.Fatalf("writes = %d for output %d", writes, len(out))
	}
}

func TestFilterProperty(t *testing.T) {
	// Property: Filter returns exactly the passing indices, in order, for
	// arbitrary predicates.
	f := func(mask []bool) bool {
		c := newCtx()
		c.SetGrain(2)
		out := Filter(c, len(mask), func(i int) bool { return mask[i] })
		want := make([]int, 0, len(mask))
		for i, b := range mask {
			if b {
				want = append(want, i)
			}
		}
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetGrainFloor(t *testing.T) {
	c := newCtx()
	c.SetGrain(-3)
	ok := true
	c.For(0, 10, func(_ *Ctx, i int) { _ = i })
	if !ok {
		t.Fatal("unreachable")
	}
}

func TestCtxAccessors(t *testing.T) {
	m := asym.NewMeter(2)
	s := asym.NewSymTracker(10)
	c := NewCtx(m, s)
	if c.Meter() != m || c.Sym() != s {
		t.Fatal("accessor identity")
	}
}

// TestForkPanicReachesCaller panics in the first branch of each fork shape,
// the one Fork2 may run on a spawned goroutine, and requires the panic to
// reach the caller's recover with its value intact and the fork's token
// returned. A forked goroutine without a recover would instead crash the
// test binary.
func TestForkPanicReachesCaller(t *testing.T) {
	type boom struct{}
	cases := []struct {
		name string
		run  func(c *Ctx)
	}{
		{"Fork2", func(c *Ctx) {
			c.Fork2(func(*Ctx) { panic(boom{}) }, func(*Ctx) {})
		}},
		{"Fork2-both", func(c *Ctx) {
			c.Fork2(func(*Ctx) { panic(boom{}) }, func(*Ctx) { panic(boom{}) })
		}},
		{"For", func(c *Ctx) {
			c.SetGrain(1)
			c.For(0, 8, func(_ *Ctx, i int) {
				if i == 0 {
					panic(boom{})
				}
			})
		}},
		{"ForEachChunk", func(c *Ctx) {
			c.ForEachChunk(8, 4, func(_ *Ctx, lo, hi int) {
				if lo == 0 {
					panic(boom{})
				}
			})
		}},
	}
	caught := func(run func(c *Ctx)) (r any) {
		defer func() { r = recover() }()
		run(newCtx())
		return nil
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if r := caught(tc.run); r != (boom{}) {
				t.Fatalf("caller recovered %v, want the branch's panic value", r)
			}
			if n := len(tokens); n != 0 {
				t.Fatalf("%d fork tokens still held after the panic", n)
			}
		})
	}
}

// passWorker is a Pass worker with a per-chunk record.
type passWorker struct {
	Worker
	chunks int
}

// TestPassMergesAndFolds checks that a Pass charges the target meter what
// its chunks charged their workers, folds the largest worker peak into the
// context's tracker by max, leaves every worker zeroed, and adds the
// deepest chunk's depth.
func TestPassMergesAndFolds(t *testing.T) {
	m := asym.NewMeter(8)
	sym := asym.NewSymTracker(0)
	c := NewCtx(m, sym)
	ws := make([]*passWorker, 3)
	for i := range ws {
		ws[i] = &passWorker{Worker: NewWorker(8, true)}
	}
	Pass(c, m, ws, 10, func(w *passWorker, wc *Ctx, lo, hi int) {
		w.chunks++
		wc.Meter().Read(hi - lo)
		wc.Meter().Write(1)
		wc.Sym().Acquire(hi - lo)
		wc.Sym().Release(hi - lo)
		wc.AddDepth(int64(100 * (hi - lo)))
	})
	if m.Reads() != 10 || m.Writes() != 3 {
		t.Fatalf("merged r=%d w=%d, want r=10 w=3", m.Reads(), m.Writes())
	}
	if hw := sym.HighWater(); hw != 4 {
		t.Fatalf("folded high-water %d, want the largest chunk's 4", hw)
	}
	for i, w := range ws {
		if w.chunks != 1 || w.M.Reads() != 0 || w.Sym.HighWater() != 0 {
			t.Fatalf("worker %d: %d chunks, %d reads and high-water %d left", i, w.chunks, w.M.Reads(), w.Sym.HighWater())
		}
	}
	if d := c.Depth(); d < 400 || d > 400+8 {
		t.Fatalf("depth %d, want the deepest chunk's 400 plus a short fork spine", d)
	}
}
