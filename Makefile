# Local entry points mirroring .github/workflows/ci.yml step for step, so
# local and CI invocations stay identical. `make ci` runs the whole gate.

GO ?= go

# Concurrency-critical packages for the -race pass (the serving layer, the
# conn dynamic/forest update paths, the parallel-build oracles and
# generators, the decomposition whose search scratch every build threads
# through and the core facade over those builds, plus their
# concurrently-used dependencies); the full suite under -race is too slow
# for a gate.
RACE_PKGS := ./internal/serve/... ./internal/store/... \
             ./internal/conn/ ./internal/asym/ ./internal/obs/ \
             ./internal/parallel/ ./internal/eulertour/ ./internal/graphio/ \
             ./internal/unionfind/ \
             ./internal/bicc/ ./internal/spanning/ ./internal/ldd/ \
             ./internal/graph/ ./internal/decomp/ ./internal/core/

.PHONY: build test race bench bench-build bench-smoke bench-check fuzz-smoke lint serve smoke smoke-churn smoke-multitenant smoke-restart ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line repeats the engine's ordering tests, its shared-
# decomposition test (the boot build forks both oracle builds over one
# decomposition) and the determinism tests of the parallel bicc and
# decomposition builds (their 130k-vertex powerlaw cases run once, in the
# first line: twenty race-built runs of them would take minutes).
race:
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -race -count=20 -run '^(TestEngineWALBeforeStage|TestLazySingleFlight|TestSharedDecomposition|TestBuildOracleParallelDeterministic|TestBuildParallelDeterministic)$$/^(boot|lazy-boot|rebased|patched-insert|patched-delete|patched-chain|uniform|small-components|no-centers|parallel-variant|extension-marks)$$' ./internal/serve/ ./internal/bicc/ ./internal/decomp/

# Every paper-table benchmark executes once (smoke); use
# `go test -bench . -benchtime 3s .` for real measurements.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The build curves at one and two processors: decomp.Build,
# decomp.Repair over one 16-edge batch and over chains of 1-64 of them
# (where a repair stops paying against Build), bicc.BuildOracle and an
# engine's boot build (serve.New, which shares one decomposition between
# its two oracles), all at n = 8192, plus one graph publish
# (graph.Overlay.Build of a 16-edge batch) and one patched engine publish
# (Engine.Update adding or removing 16 edges) at n = 8192 and 65536.
# Charged reads and writes per op must match across -cpu settings; only
# ns/op may differ.
bench-build:
	$(GO) test -run '^$$' -bench '^(BenchmarkBuild(Oracle)?|BenchmarkRepair(Chain)?|BenchmarkEngineNew|BenchmarkOverlayBuild|BenchmarkPatchedUpdate)$$' -cpu 1,2 -count 3 ./internal/decomp/ ./internal/bicc/ ./internal/serve/ ./internal/graph/

# Seconds-scale smoke of the repository benchmark (perfbench/, declared in
# BENCHMARK.json): churn-bicc drives the engine, the update ladder and the
# durable store, http-conn the HTTP /batch path. Each workload runs twice at
# one seed; perfbench checks every answer against a reference and exits
# nonzero unless both runs print identical counted metrics.
bench-smoke:
	bash perfbench/run.sh --determinism --workload churn-bicc --seconds 1
	bash perfbench/run.sh --determinism --workload http-conn --seconds 1

# Vet and test the benchmark module. perfbench/ is a nested Go module, so
# the root `go vet ./...` and `go test ./...` never compile it; this is the
# gate that a serving-API change cannot silently break perfbench/run.sh.
# Same module flags as run.sh.
bench-check:
	cd perfbench && GOFLAGS=-mod=mod GOWORK=off $(GO) vet ./... && \
	  GOFLAGS=-mod=mod GOWORK=off $(GO) test ./...

# Short native fuzz runs (plain `go test` runs only the seed corpora): the
# /batch codec against encoding/json, the bicc block solver and the whole
# bicc oracle against Ref on small multigraphs, decomp.Repair against
# decomp.Build on fuzzed edge batches, graph.Overlay.Build against
# graph.FromEdges on fuzzed multigraphs and batches, and conn's
# copy-on-write spanning forest against per-version reference forests on
# fuzzed Link/Cut/Clone sequences. The budget is an exec count, not a duration:
# a time-based -fuzztime can stall on a 2-vCPU machine.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBatchDecode$$' -fuzztime 5000x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzLocalBlocks$$' -fuzztime 5000x ./internal/bicc/
	$(GO) test -run '^$$' -fuzz '^FuzzOracle$$' -fuzztime 5000x ./internal/bicc/
	$(GO) test -run '^$$' -fuzz '^FuzzRepair$$' -fuzztime 5000x ./internal/decomp/
	$(GO) test -run '^$$' -fuzz '^FuzzOverlayBuild$$' -fuzztime 5000x ./internal/graph/
	$(GO) test -run '^$$' -fuzz '^FuzzForest$$' -fuzztime 5000x ./internal/conn/

# gofmt + vet + the repository's own invariant analyzers (weclint: metered
# access, snapshot immutability, typed errors, the zero-alloc hot path,
# godoc coverage, //wec: directive hygiene — see docs/static-analysis.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
	  echo "files need gofmt:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/weclint ./...

# Run the query daemon on a generated graph (override with ARGS, e.g.
# make serve ARGS="-graph edges.txt -omega 256 -addr :9090").
serve:
	$(GO) run ./cmd/oracled $(ARGS)

# End-to-end smoke of the serving path: the wecbench load generator starts
# an in-process oracled and exits nonzero unless every query is answered.
smoke:
	$(GO) run ./cmd/wecbench -exp serve -servequeries 2000 -serveconc 2 -scale 1

# End-to-end smoke of the dynamic-update path (race-built): /update batches
# cycling insertion-only / deletion-heavy / mixed shapes under query load,
# every post-swap answer verified against a from-scratch oracle, the
# per-oracle strategy ladder asserted exactly (patch-insert, patch-delete,
# scheduled re-base — and zero full conn rebuilds, since every removal is
# chosen split-free), and patched rebuilds must write strictly less than a
# full build. Bicc deferral gates ride along: zero publish-path bicc
# rebuilds, every batch deferred or absorbed, lazy builds == lazy
# deferrals. The second phase restricts the query load to conn-family
# kinds and asserts — counter-gated via /stats — that a conn-only workload
# triggers ZERO bicc rebuilds across the whole churn run.
smoke-churn:
	$(GO) run -race ./cmd/wecbench -exp serve -servechurn 9 -servechurnedges 24 -servechurnrebase 5 -serveconc 2 -scale 1
	$(GO) run -race ./cmd/wecbench -exp serve -servechurn 6 -servechurnedges 16 -servechurnrebase 3 -serveconc 2 -scale 1 -servechurnconnonly

# End-to-end smoke of the multi-graph registry, under the race detector:
# two graphs created through the lifecycle API and served concurrently,
# one churned, answers verified against per-graph reference oracles,
# admission control demonstrated (queue-full → 429, rejection counted in
# /stats), one graph deleted.
smoke-multitenant:
	$(GO) run -race ./cmd/wecbench -exp multitenant -mtgraphs 2 -mtqueries 1500 -mtchurn 3 -mtconc 2 -scale 1

# End-to-end smoke of the durable store, under the race detector on both
# sides of the process boundary: a race-built oracled is started with
# -datadir, two graphs are created and churned under load, the daemon is
# SIGKILL'd mid-churn, restarted, and every graph must recover to its last
# acknowledged epoch with query answers matching a from-scratch reference
# oracle; a deleted graph must stay deleted, and a graceful-shutdown
# snapshot-fold round runs after that.
smoke-restart:
	@tmp=$$(mktemp -d); \
	$(GO) build -race -o $$tmp/oracled ./cmd/oracled && \
	$(GO) run -race ./cmd/wecbench -exp restart -restartchurn 4 -oracledbin $$tmp/oracled; \
	rc=$$?; rm -rf $$tmp; exit $$rc

ci: lint build test race bench bench-smoke bench-check fuzz-smoke smoke smoke-churn smoke-multitenant smoke-restart
