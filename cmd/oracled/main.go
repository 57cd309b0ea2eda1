// Command oracled serves the paper's connectivity and biconnectivity query
// oracles over HTTP/JSON — for one graph or many. It starts a graph
// registry, registers a default graph (edge-list file via graphio, or a
// synthetic generator) whose oracles build in the background while the
// listener is already up (/healthz reports 503 until the first snapshot
// publishes), and answers connected / component / bridge / articulation /
// biconnected queries — singly via POST /query, batched via POST /batch —
// with the paper's cost-model metrics (asymmetric reads, writes, work per
// query kind) exposed live at GET /stats.
//
// Further graphs are created and destroyed at runtime through the
// lifecycle API: POST /graphs registers a named graph (generator params or
// an inline graphio edge list) built in the background, GET /graphs lists
// every graph's state (building | ready | failed), and each graph serves
// its own /graphs/{name}/query|batch|update|stats|info endpoints.
// DELETE /graphs/{name} drains and closes it. All graphs draw query
// workers from one shared pool sized to -poolsize, and -maxinflight caps
// concurrently admitted requests per graph (beyond it: 429 + Retry-After,
// counted in that graph's /stats).
//
// Every served graph is dynamic: POST /update stages an edge-churn batch
// (adds and removes over the fixed vertex set), a background rebuild folds
// it into the next snapshot while the current one keeps answering, and an
// atomic swap publishes it — insertion-only batches take the
// write-efficient incremental path. Every rebuild is logged with its
// graph, strategy and per-phase asymmetric costs.
//
// Observability: the daemon logs structured JSON (log/slog) on stdout,
// with graph/epoch/strategy fields on lifecycle and rebuild events. The
// fleet's metrics are served in Prometheus text format at GET /metrics and
// recent slow-request traces at GET /debug/traces (capture threshold set
// by -slowquery; negative captures every request). -opsaddr starts a
// second listener carrying /metrics, /debug/traces and net/http/pprof —
// so profiling and scraping stay reachable (and access-controllable)
// separately from query traffic. -version prints build/VCS info and
// exits.
//
// Usage:
//
//	oracled -graph edges.txt -addr :8080 -omega 64
//	oracled -gen random-regular -n 100000 -deg 3 -addr :8080 -maxinflight 64
//
//	curl -s localhost:8080/healthz       # 503 until the default graph is ready
//	curl -s localhost:8080/info
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/debug/traces
//	curl -s -d '{"kind":"connected","u":0,"v":42}' localhost:8080/query
//	curl -s -d '{"queries":[{"kind":"component","u":7},{"kind":"bridge","u":1,"v":2}]}' \
//	     localhost:8080/batch
//	curl -s -d '{"add":[[0,42],[7,9]],"remove":[[1,2]],"wait":true}' localhost:8080/update
//	curl -s -d '{"name":"social","gen":"gnm","n":50000,"deg":8}' localhost:8080/graphs
//	curl -s localhost:8080/graphs
//	curl -s -d '{"kind":"component","u":7}' localhost:8080/graphs/social/query
//	curl -s -X DELETE localhost:8080/graphs/social
//	curl -s localhost:8080/stats
//
// With -datadir the fleet is durable: every accepted /update batch is
// appended to a per-graph write-ahead log before it is staged, snapshots
// fold the WAL periodically (and on size growth) into CRC-guarded files
// installed by atomic rename, and graph create/delete events are recorded
// in a manifest. A restarted daemon replays the data directory — newest
// valid snapshot plus WAL tail per graph — and rebuilds every oracle in
// the background while the listener is already up, resuming each graph at
// (at least) its last acknowledged epoch with continuing update sequence
// numbers. -fsync picks the WAL sync policy (always | commit | none);
// kill -9 recovery needs none of them, power-loss durability of
// acknowledged updates needs "always".
//
// With -graph "-" the edge list is read from stdin. On SIGINT/SIGTERM the
// daemon stops accepting requests, drains in-flight ones, and exits.
//
// The `inspect` subcommand dumps a data directory without starting a
// daemon (and without repairing anything — strictly read-only): manifest
// entries, snapshot headers (format version, epoch/seq watermark, CRC
// verdict, section sizes incl. the persisted forest and chain depth), and
// WAL segment coverage (record counts, sequence ranges, commit watermarks,
// torn tails):
//
//	oracled inspect /var/lib/oracled
//	oracled inspect -json /var/lib/oracled
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// storePersist adapts the durable store to the registry's persistence
// interface (serve must not import store; this is the whole glue).
type storePersist struct{ st *store.Store }

func (p storePersist) CreateGraph(name string, specJSON []byte) (serve.GraphPersister, error) {
	return p.st.CreateGraph(name, specJSON)
}

func (p storePersist) DeleteGraph(name string) error { return p.st.DeleteGraph(name) }

func main() {
	if len(os.Args) > 1 && os.Args[1] == "inspect" {
		os.Exit(runInspect(os.Args[2:]))
	}
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		graphArg    = flag.String("graph", "", `edge-list file ("-" for stdin); empty uses -gen`)
		gen         = flag.String("gen", "random-regular", "generator when -graph is empty: random-regular|gnm")
		n           = flag.Int("n", 1<<14, "generated graph: vertices")
		deg         = flag.Int("deg", 3, "generated graph: degree (random-regular) or avg degree (gnm)")
		gseed       = flag.Uint64("graphseed", 42, "generated graph: seed")
		omega       = flag.Int("omega", 64, "asymmetric write cost ω (default for every graph)")
		k           = flag.Int("k", 0, "decomposition parameter k (0 = ⌈√ω⌉)")
		seed        = flag.Uint64("seed", 7, "decomposition sampling seed")
		workers     = flag.Int("workers", 0, "batch shard count per request (0 = GOMAXPROCS)")
		graphName   = flag.String("graphname", "default", "name of the default graph")
		poolSize    = flag.Int("poolsize", 0, "shared query-worker pool size across all graphs (0 = GOMAXPROCS)")
		maxInflight = flag.Int("maxinflight", 0, "per-graph cap on concurrently admitted requests; beyond it 429 (0 = unlimited)")
		maxGraphs   = flag.Int("maxgraphs", 0, "cap on registered graphs (0 = default 64, negative = unlimited)")
		rebaseEvery = flag.Int("rebaseevery", 0, "re-base an oracle's incremental patch chain after this many chained batches (0 = default 64, negative = never)")

		dataDir  = flag.String("datadir", "", "durable store directory; empty = in-memory fleet (lost on exit)")
		fsync    = flag.String("fsync", store.FsyncCommit, "WAL sync policy with -datadir: always|commit|none")
		compactB = flag.Int64("compactbytes", store.DefaultCompactBytes, "WAL bytes since last snapshot that trigger compaction (negative disables)")
		compactT = flag.Duration("compactevery", store.DefaultCompactInterval, "max snapshot age before a publish triggers compaction (negative disables)")

		opsAddr   = flag.String("opsaddr", "", "optional second listener for /metrics, /debug/traces and /debug/pprof; empty serves no pprof")
		slowQuery = flag.Duration("slowquery", obs.DefaultSlowQuery, "capture a request trace at /debug/traces when it runs at least this long (negative = capture all)")
		version   = flag.Bool("version", false, "print version/build info and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println("oracled " + obs.Build().String())
		os.Exit(0)
	}

	if err := validateFlags(*graphArg, *gen, *n, *deg, *omega, *k, *workers); err != nil {
		fmt.Fprintf(os.Stderr, "oracled: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *poolSize < 0 || *maxInflight < 0 {
		fmt.Fprintf(os.Stderr, "oracled: -poolsize and -maxinflight must be >= 0\n")
		flag.Usage()
		os.Exit(2)
	}
	if !store.ValidFsync(*fsync) {
		fmt.Fprintf(os.Stderr, "oracled: -fsync must be always|commit|none, got %q\n", *fsync)
		flag.Usage()
		os.Exit(2)
	}

	// Structured JSON logging on stdout. Only the "listening on" line below
	// stays plain text: it is the machine-readable readiness contract that
	// harnesses (wecbench -exp restart) parse.
	logger := slog.New(slog.NewJSONHandler(os.Stdout, nil))
	bi := obs.Build()
	logger.Info("oracled starting", "version", bi.Version, "revision", bi.Revision, "dirty", bi.Dirty, "go", bi.GoVersion)

	// One metrics registry for the whole process: the store's durability
	// families and the serving layer's query/rebuild families land in the
	// same /metrics page.
	metrics := obs.NewRegistry()

	// With a data directory, open the store first: recovery decides whether
	// the flag-described default graph even needs to be built.
	var st *store.Store
	var recovered *store.Recovery
	var persist serve.RegistryPersister
	if *dataDir != "" {
		var err error
		st, recovered, err = store.Open(*dataDir, store.Options{
			Fsync:           *fsync,
			CompactBytes:    *compactB,
			CompactInterval: *compactT,
			Metrics:         metrics,
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...), "component", "store")
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracled: open datadir: %v\n", err)
			os.Exit(1)
		}
		persist = storePersist{st}
		logger.Info("datadir open", "dir", *dataDir, "fsync", *fsync, "graphs_to_recover", len(recovered.Graphs))
	}

	var reg *serve.Registry
	reg = serve.NewRegistry(serve.RegistryConfig{
		Engine:      serve.Config{Omega: *omega, K: *k, Seed: *seed, Workers: *workers, RebaseEvery: *rebaseEvery},
		Pool:        serve.NewPool(*poolSize),
		MaxInflight: *maxInflight,
		MaxGraphs:   *maxGraphs,
		Persist:     persist,
		Metrics:     metrics,
		SlowQuery:   *slowQuery,
		OnRebuild: func(name string, r serve.RebuildRecord) {
			logRebuild(logger, name, r)
		},
		// Lifecycle logging: the build finishing (or failing) is the
		// daemon's readiness moment, so say so with the build's shape.
		OnState: func(name string, state serve.GraphState, errMsg string) {
			if state == serve.StateFailed {
				logger.Error("graph build failed", "graph", name, "error", errMsg)
				return
			}
			st, _ := reg.Status(name)
			if eng, err := reg.Get(name); err == nil {
				es := eng.Stats()
				logger.Info("graph ready",
					"graph", name, "build_ms", st.BuildMs,
					"n", es.GraphN, "m", es.GraphM, "k", es.K,
					"components", es.NumComponents, "bccs", es.NumBCC,
					"build_cost_conn", fmt.Sprint(es.BuildCosts["conn"]),
					"build_cost_bicc", fmt.Sprint(es.BuildCosts["bicc"]))
			}
		},
	})

	// Recovered graphs first, in their original creation order (so the
	// pre-crash default graph is the default again). All builds run in the
	// background: the listener below is up before any oracle exists.
	recoveredDefault := false
	if recovered != nil {
		for _, rg := range recovered.Graphs {
			var spec serve.GraphSpec
			if err := json.Unmarshal(rg.SpecJSON, &spec); err != nil {
				logger.Warn("stored spec unreadable, using flag defaults", "graph", rg.Name, "error", err.Error())
				spec = serve.GraphSpec{}
			}
			spec.Wait = false
			rs := serve.RecoveredState{Epoch: rg.Epoch, Seq: rg.LastSeq, Forest: rg.Forest, ChainDepth: rg.ChainDepth}
			if _, err := reg.CreateRecovered(rg.Name, rg.Graph, spec, rg.Log, rs); err != nil {
				fmt.Fprintf(os.Stderr, "oracled: recover %q: %v\n", rg.Name, err)
				os.Exit(1)
			}
			if rg.Warn != "" {
				logger.Warn("recovery notes", "graph", rg.Name, "notes", rg.Warn)
			}
			logger.Info("graph recovered, rebuilding oracles in the background",
				"graph", rg.Name, "n", rg.Graph.N(), "m", rg.Graph.M(),
				"epoch", rg.Epoch, "seq", rg.LastSeq)
			recoveredDefault = recoveredDefault || rg.Name == *graphName
		}
		// Recovered graphs never auto-claim the default slot (that could
		// silently point the un-prefixed endpoints at another tenant's
		// graph); the daemon's default is by name.
		if recoveredDefault {
			if err := reg.SetDefault(*graphName); err != nil {
				fmt.Fprintf(os.Stderr, "oracled: restore default %q: %v\n", *graphName, err)
				os.Exit(1)
			}
		}
	}

	// The flag-described default graph is only built when recovery did not
	// already bring it back (generation/IO is skipped entirely otherwise).
	if !recoveredDefault {
		g, err := loadGraph(*graphArg, *gen, *n, *deg, *gseed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracled: %v\n", err)
			os.Exit(1)
		}
		logger.Info("building default graph in the background",
			"graph", *graphName, "n", g.N(), "m", g.M(),
			"omega", *omega, "pool", reg.Pool().Size(), "maxinflight", *maxInflight)
		if _, err := reg.CreateFromGraph(*graphName, g, serve.GraphSpec{Name: *graphName}); err != nil {
			fmt.Fprintf(os.Stderr, "oracled: %v\n", err)
			os.Exit(1)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oracled: %v\n", err)
		os.Exit(1)
	}
	// The resolved address (exact port even for ":0") on its own line:
	// harnesses like wecbench -exp restart parse it. Keep it plain text —
	// NOT slog — or restarted fleets stop finding their daemon.
	fmt.Printf("oracled: listening on %s\n", ln.Addr())
	logger.Info("serving",
		"addr", ln.Addr().String(), "default_graph", *graphName,
		"endpoints", "/query /batch /update /stats /info /healthz /metrics /debug/traces /graphs[/{name}/...]")

	// The ops listener carries the observability surface on its own port:
	// pprof profiling plus a second mount of /metrics and /debug/traces, so
	// scrapers and profilers can be firewalled away from query traffic.
	var opsSrv *http.Server
	if *opsAddr != "" {
		opsLn, err := net.Listen("tcp", *opsAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "oracled: ops listener: %v\n", err)
			os.Exit(1)
		}
		opsMux := http.NewServeMux()
		opsMux.HandleFunc("/debug/pprof/", pprof.Index)
		opsMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		opsMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		opsMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		opsMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		opsMux.Handle("/metrics", metrics.Handler())
		opsMux.Handle("/debug/traces", reg.Tracer().Handler())
		opsSrv = &http.Server{Handler: opsMux, ReadHeaderTimeout: 10 * time.Second}
		logger.Info("ops listener up", "addr", opsLn.Addr().String())
		go func() {
			if err := opsSrv.Serve(opsLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("ops listener failed", "error", err.Error())
			}
		}()
	}

	srv := &http.Server{
		Handler:           serve.NewRegistryServer(reg),
		ReadHeaderTimeout: 10 * time.Second,
	}
	// Graceful shutdown: stop the listener, drain in-flight requests, then
	// stop every engine's rebuild goroutine, then fold each graph's WAL
	// into a final snapshot so the next boot skips replay.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		logger.Info("shutting down", "signal", sig.String(), "graphs", len(reg.List()))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if opsSrv != nil {
			_ = opsSrv.Shutdown(ctx)
		}
		reg.Close()
		if st != nil {
			foldFleet(logger, reg)
			st.Close()
		}
	}()
	if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "oracled: %v\n", err)
		os.Exit(1)
	}
	<-done
}

// foldFleet writes a final snapshot for every ready graph on graceful
// shutdown, so the next boot loads one file per graph instead of replaying
// WAL tails. Best-effort: a failure leaves the WAL, which recovery
// replays anyway.
func foldFleet(logger *slog.Logger, reg *serve.Registry) {
	for _, gs := range reg.List() {
		eng, err := reg.Get(gs.Name)
		if err != nil {
			continue
		}
		if err := eng.PersistNow(); err != nil {
			logger.Error("final snapshot failed", "graph", gs.Name, "error", err.Error())
		} else {
			logger.Info("final snapshot written", "graph", gs.Name, "epoch", eng.Epoch())
		}
	}
}

// logRebuild reports every snapshot swap of every graph: strategy,
// coalesced batch shape, and the separable asymmetric costs of the rebuild
// phases.
func logRebuild(logger *slog.Logger, name string, r serve.RebuildRecord) {
	if r.Err != "" {
		logger.Error("rebuild failed, batches dropped",
			"graph", name, "batches", r.Batches, "error", r.Err)
		return
	}
	deferred := 0
	for _, s := range r.Strategies {
		if s == serve.StrategyLazy {
			deferred++
		}
	}
	logger.Info("epoch published",
		"graph", name, "epoch", r.Epoch, "strategy", r.Strategy,
		"batches", r.Batches, "added_edges", r.AddedEdges, "removed_edges", r.RemovedEdges,
		"duration_ms", float64(r.Duration.Nanoseconds())/1e6,
		"oracle_strategies", r.Strategies, "deferred_oracles", deferred,
		"writes_graph", r.GraphCost.Writes, "writes_conn", r.OracleCosts["conn"].Writes, "writes_bicc", r.OracleCosts["bicc"].Writes)
}

// validateFlags rejects parameter combinations that would otherwise
// surface as panics deep inside decomp.Build / ldd.Decompose (e.g. -k -1
// or -omega -5) or as nonsense generator inputs. Returns the usage error;
// main exits 2.
func validateFlags(graphArg, gen string, n, deg, omega, k, workers int) error {
	if omega < 1 {
		return fmt.Errorf("-omega must be >= 1, got %d", omega)
	}
	if k < 0 {
		return fmt.Errorf("-k must be >= 0 (0 selects ⌈√ω⌉), got %d", k)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 selects GOMAXPROCS), got %d", workers)
	}
	if graphArg == "" {
		if gen != "random-regular" && gen != "gnm" {
			return fmt.Errorf("unknown generator %q (want random-regular or gnm)", gen)
		}
		if n < 1 {
			return fmt.Errorf("-n must be >= 1, got %d", n)
		}
		if deg < 0 {
			return fmt.Errorf("-deg must be >= 0, got %d", deg)
		}
		if gen == "random-regular" {
			if deg < 2 {
				return fmt.Errorf("-deg must be >= 2 for random-regular, got %d", deg)
			}
			if deg >= n {
				return fmt.Errorf("-deg %d must be below -n %d for random-regular", deg, n)
			}
			if n*deg%2 != 0 {
				return fmt.Errorf("-n·-deg must be even for random-regular, got %d·%d", n, deg)
			}
		}
	}
	return nil
}

func loadGraph(path, gen string, n, deg int, seed uint64) (*graph.Graph, error) {
	if path == "-" {
		return graphio.Read(os.Stdin)
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graphio.Read(f)
	}
	switch gen {
	case "random-regular":
		return graph.RandomRegular(n, deg, seed), nil
	case "gnm":
		return graph.GNM(n, n*deg/2, seed, true), nil
	default:
		return nil, fmt.Errorf("unknown generator %q (want random-regular or gnm)", gen)
	}
}
