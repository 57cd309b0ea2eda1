// Package parallel provides the fork-join primitives of the Asymmetric
// Nested-Parallel (NP) model: binary fork, parallel for, reduce, prefix sums
// (scan), and the write-efficient filter of Ben-David et al. [9] that the
// paper's connectivity algorithms rely on.
//
// Two quantities are tracked:
//
//   - Work: charged to a shared asym.Meter (reads + ops + ω·writes).
//   - Depth: the cost of the most expensive path through the dynamically
//     unfolding fork-join DAG. Each Ctx owns a local depth accumulator;
//     Fork2 and For combine child depths with max, sequential code adds.
//
// Execution uses goroutines gated by a global token pool sized to
// GOMAXPROCS, so the measured depth is an analytic property of the DAG and
// is identical no matter how many processors actually run it (the
// work-stealing theorem of [9] then gives time W/P + ωD).
package parallel

import (
	"runtime"

	"repro/internal/asym"
)

// tokens bounds the number of simultaneously running forked goroutines.
var tokens = make(chan struct{}, maxProcs())

func maxProcs() int {
	p := runtime.GOMAXPROCS(0)
	if p < 1 {
		p = 1
	}
	return p
}

// Ctx is a task context in the Asymmetric NP model. It carries the shared
// cost meter and a task-local depth accumulator. A Ctx must be used by one
// goroutine at a time; Fork2/For hand children their own Ctx.
type Ctx struct {
	meter *asym.Meter
	sym   *asym.SymTracker
	depth int64
	grain int
}

// NewCtx returns a root task context charging the given meter. sym may be
// nil when symmetric-memory accounting is not needed.
func NewCtx(meter *asym.Meter, sym *asym.SymTracker) *Ctx {
	return &Ctx{meter: meter, sym: sym, grain: 64}
}

// Meter returns the shared cost meter.
func (c *Ctx) Meter() *asym.Meter { return c.meter }

// Sym returns the symmetric-memory tracker (may be nil).
func (c *Ctx) Sym() *asym.SymTracker { return c.sym }

// SetGrain sets the sequential grain size for For; below the grain the loop
// runs sequentially. Grain affects constants only, never measured depth
// asymptotics (leaf depth is still counted per iteration).
func (c *Ctx) SetGrain(g int) {
	if g < 1 {
		g = 1
	}
	c.grain = g
}

// AddDepth records d units of sequential cost on this task's path.
func (c *Ctx) AddDepth(d int64) { c.depth += d }

// Depth returns the critical-path cost accumulated in this context so far.
func (c *Ctx) Depth() int64 { return c.depth }

// child returns a fresh context for a forked task.
func (c *Ctx) child() *Ctx {
	return &Ctx{meter: c.meter, sym: c.sym, grain: c.grain}
}

// Fork2 runs f and g as parallel children (the Fork instruction of the
// model) and adds max(depth(f), depth(g)) + 1 to this task's depth.
//
// A panic in either branch reaches Fork2's caller, as if the branches had
// run sequentially: a panic in f, which may run on a spawned goroutine, is
// recovered there and raised again on the calling goroutine once f has
// ended. f is joined even when g panics, so no branch outlives the call.
func (c *Ctx) Fork2(f, g func(*Ctx)) {
	cf, cg := c.child(), c.child()
	select {
	case tokens <- struct{}{}:
		done := make(chan struct{})
		var fPanic any
		go func() {
			defer func() {
				fPanic = recover()
				<-tokens
				close(done)
			}()
			f(cf)
		}()
		func() {
			defer func() { <-done }()
			g(cg)
		}()
		if fPanic != nil {
			panic(fPanic)
		}
	default:
		f(cf)
		g(cg)
	}
	d := cf.depth
	if cg.depth > d {
		d = cg.depth
	}
	c.depth += d + 1
}

// Measure runs f sequentially in a fresh child context and returns the
// depth it accumulated, without adding anything to c. Algorithms that model
// custom fork shapes (a fan-out over a variable-sized target set) measure
// each branch and combine with max themselves.
func (c *Ctx) Measure(f func(*Ctx)) int64 {
	cc := c.child()
	f(cc)
	return cc.depth
}

// For runs body(i) for i in [lo, hi) with divide-and-conquer forking.
// Depth contribution is O(log(hi-lo)) for the recursion spine plus, at each
// leaf, the sequential sum of the leaf's iteration depths; the parent
// receives the max over leaves, matching the standard nested-parallel
// analysis of a parallel for.
func (c *Ctx) For(lo, hi int, body func(c *Ctx, i int)) {
	if hi <= lo {
		return
	}
	if hi-lo <= c.grain {
		leaf := c.child()
		for i := lo; i < hi; i++ {
			body(leaf, i)
		}
		c.depth += leaf.depth + 1
		return
	}
	mid := lo + (hi-lo)/2
	c.Fork2(
		func(cc *Ctx) { cc.For(lo, mid, body) },
		func(cc *Ctx) { cc.For(mid, hi, body) },
	)
}

// ForEachChunk runs body over contiguous chunks of [0,n) in parallel,
// giving the body the chunk bounds. Useful for block-local counting in the
// write-efficient filter. Depth is O(log n + max chunk depth).
func (c *Ctx) ForEachChunk(n, chunk int, body func(c *Ctx, lo, hi int)) {
	if chunk < 1 {
		chunk = 1
	}
	nchunks := (n + chunk - 1) / chunk
	saved := c.grain
	c.grain = 1
	c.For(0, nchunks, func(cc *Ctx, b int) {
		lo := b * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(cc, lo, hi)
	})
	c.grain = saved
}
