package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/asym"
	"repro/internal/bicc"
	"repro/internal/conn"
	"repro/internal/decomp"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/store"
)

// The engine configuration is oracled's default: ω = 64, k = ⌈√ω⌉,
// decomposition seed 7, a shared pool sized to GOMAXPROCS.
const (
	omega     = 64
	buildSeed = 7
	graphName = "bench"
)

// storePersist adapts the durable store to the registry's persistence
// interface, the same glue cmd/oracled uses.
type storePersist struct{ st *store.Store }

func (p storePersist) CreateGraph(name string, specJSON []byte) (serve.GraphPersister, error) {
	return p.st.CreateGraph(name, specJSON)
}

func (p storePersist) DeleteGraph(name string) error { return p.st.DeleteGraph(name) }

// fleet is one served graph: a registry holding it, the metric registry
// its engine and store report to, and (for durable workloads) the store.
type fleet struct {
	reg *serve.Registry
	met *obs.Registry
	st  *store.Store
	eng *serve.Engine
	dir string
}

// openFleet registers g in a fresh registry and returns once it is ready,
// with the set-up time: CreateFromGraph until ready, which for a durable
// fleet includes the initial snapshot write (opening the store does not
// count).
func openFleet(g *graph.Graph, durable bool, dir string, tr *tracer) (*fleet, time.Duration, error) {
	f := &fleet{met: obs.NewRegistry(), dir: dir}
	var persist serve.RegistryPersister
	if durable {
		st, _, err := store.Open(dir, store.Options{Fsync: store.FsyncCommit, Metrics: f.met})
		if err != nil {
			return nil, 0, err
		}
		f.st = st
		persist = storePersist{st}
	}
	f.reg = serve.NewRegistry(serve.RegistryConfig{
		Engine:  serve.Config{Omega: omega, Seed: buildSeed},
		Pool:    serve.NewPool(0),
		Persist: persist,
		Metrics: f.met,
	})
	sp := tr.open("setup.create", 0, 0)
	t0 := time.Now()
	st, err := f.reg.CreateFromGraph(graphName, g, serve.GraphSpec{Wait: true})
	took := time.Since(t0)
	tr.finish(sp)
	if err == nil && st.State != serve.StateReady {
		err = fmt.Errorf("graph %s: %s", st.State, st.Error)
	}
	if err == nil {
		f.eng, err = f.reg.Get(graphName)
	}
	if err != nil {
		f.close()
		return nil, 0, err
	}
	return f, took, nil
}

func (f *fleet) close() {
	f.reg.Close()
	if f.st != nil {
		f.st.Close()
	}
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// tracedBuilds times the three oracle layers by calling them directly on
// g, outside the engine: the decomposition, the connectivity oracle (which
// builds its own decomposition, as the engine's conn factory does) and the
// biconnectivity oracle over the already-built decomposition.
func tracedBuilds(tr *tracer, g *graph.Graph) {
	k := conn.DefaultK(omega)
	view := func() (*parallel.Ctx, graph.View) {
		m := asym.NewMeter(omega)
		return parallel.NewCtx(m, nil), graph.View{G: g, M: m}
	}
	c, vw := view()
	sp := tr.open("setup.decomp", 0, 0)
	d := decomp.Build(c, vw, k, buildSeed, decomp.Options{})
	tr.finish(sp)

	c, vw = view()
	sp = tr.open("setup.conn", 0, 0)
	conn.BuildOracle(c, vw, k, buildSeed)
	tr.finish(sp)

	c, vw = view()
	sp = tr.open("setup.bicc", 0, 0)
	bicc.BuildOracle(c, vw, d, k, buildSeed)
	tr.finish(sp)
}
