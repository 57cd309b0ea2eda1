package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/asym"
	"repro/internal/obs"
)

// This file is the HTTP/JSON surface over the Registry, mounted by
// cmd/oracled and by the httptest round-trips in the test files.
//
// Single-graph endpoints (route to the registry's *default* graph, so every
// pre-multi-tenant client works unchanged):
//
//	POST /query   {"kind":"connected","u":0,"v":5}      -> Result
//	              (optional "staleness":"bounded" answers a deferred oracle's
//	              kinds from its last-built state, reporting "epoch")
//	POST /batch   {"queries":[Query,...]}                -> {"results":[Result,...],"count":N}
//	              (optional top-level "staleness" is the default for queries
//	              that don't set their own)
//	POST /update  {"add":[[0,5],...],"remove":[[1,2],...],"wait":true} -> UpdateResponse
//	GET  /stats                                          -> Stats (incl. epoch, rebuild, admission, pool telemetry)
//	GET  /info                                           -> per-snapshot build/graph info
//	GET  /healthz                                        -> 200 {"ok":true} once the default graph's first
//	                                                        snapshot is published; 503 {"ok":false,...} before
//	                                                        (readiness, not liveness)
//
// Observability (fleet-wide):
//
//	GET /metrics       -> Prometheus text exposition of the registry's obs
//	                      metrics (per-graph query latency, admission, caches,
//	                      rebuilds, epoch; fleet pool and graph count)
//	GET /debug/traces  -> JSON ring of recent slow requests (span per phase;
//	                      threshold from RegistryConfig.SlowQuery)
//
// Graph lifecycle (multi-tenant):
//
//	POST   /graphs                -> create a named graph from generator params or an inline
//	                                 graphio body; built in the background (202 + state
//	                                 "building", or the final state with "wait":true)
//	GET    /graphs                -> every graph's lifecycle status
//	GET    /graphs/{name}         -> one graph's lifecycle status
//	DELETE /graphs/{name}         -> unregister; drains in-flight requests, then closes
//	POST   /graphs/{name}/query|batch|update, GET /graphs/{name}/stats|info
//	                              -> the single-graph endpoints, per graph
//
// Requests against a graph that is still building get 503 + Retry-After;
// admission-control rejections (per-graph in-flight cap) get 429 +
// Retry-After with the rejection counted in that graph's /stats. Wrong
// methods get 405 with an Allow header (the method-aware mux patterns
// below), never a zero-value decode of the wrong request shape.
//
// /batch, the hot endpoint, reads and writes its JSON with a hand-written
// codec (batchcodec.go) that keeps encoding/json's semantics byte for byte
// and decodes into pooled memory without reflection; every other endpoint
// uses encoding/json.
//
// Batch requests are capped at MaxBatch queries so a single request cannot
// hold a worker set for an unbounded time; load generators split larger
// workloads into multiple requests (cmd/wecbench -exp serve does). The cap
// is enforced before decoding via a MaxBytesReader on the request body —
// rejecting an oversized batch must not itself cost an oversized decode —
// and any /batch body over maxBatchBytes is a 413.
// Update requests are capped the same way at MaxUpdateEdges edges, graph
// creations at maxGraphSpecBytes.

// MaxBatch bounds the number of queries accepted by one /batch request.
const MaxBatch = 1 << 20

// MaxUpdateEdges bounds the total edges (add + remove) in one /update
// request; larger churn is split into multiple batches, which the engine
// coalesces into one rebuild anyway.
const MaxUpdateEdges = 1 << 18

// maxUpdateBytes bounds the /update request body. 32 bytes per edge covers
// the encoded pair ("[2147483647,2147483647],") with room for the wrapper.
const maxUpdateBytes = MaxUpdateEdges * 32

// maxBatchBytes bounds the /batch request body. 64 bytes comfortably covers
// one encoded query ({"kind":"articulation","u":2147483647,"v":...} plus
// separators), so the limit is never the binding constraint for a legal
// MaxBatch-sized batch.
const maxBatchBytes = MaxBatch * 64

// maxQueryBytes bounds the /query request body.
const maxQueryBytes = 1 << 12

// maxGraphSpecBytes bounds the POST /graphs request body (the graphio
// field carries whole edge lists).
const maxGraphSpecBytes = 64 << 20

// retryAfter is the Retry-After value (seconds) sent with 429 and
// not-ready 503 responses.
const retryAfter = "1"

// BatchRequest is the /batch request body. Staleness, when set, is the
// batch-level default applied to every query that does not set its own
// (per-query values win; see StalenessStrict / StalenessBounded).
type BatchRequest struct {
	Queries   []Query `json:"queries"`
	Staleness string  `json:"staleness,omitempty"`
}

// BatchResponse is the /batch response body.
type BatchResponse struct {
	Results []Result `json:"results"`
	Count   int      `json:"count"`
}

// UpdateRequest is the /update request body: edge pairs to add and remove
// (adds apply before removes) and whether to block until the batch is part
// of the published snapshot.
type UpdateRequest struct {
	Add    [][2]int32 `json:"add,omitempty"`
	Remove [][2]int32 `json:"remove,omitempty"`
	Wait   bool       `json:"wait,omitempty"`
}

// UpdateResponse is the /update response body (a JSON view of
// UpdateStatus).
type UpdateResponse struct {
	Seq     int64 `json:"seq"`
	Epoch   int64 `json:"epoch"`
	Pending int   `json:"pending"`
	Applied bool  `json:"applied"`
}

// GraphListResponse is the GET /graphs response body.
type GraphListResponse struct {
	Graphs  []GraphStatus `json:"graphs"`
	Default string        `json:"default,omitempty"`
}

// Info is the /info response body: the engine's configuration plus the
// current snapshot's shape and build costs, and the binary's build identity
// so scraped metrics can be correlated with the exact build. The shape and
// epoch are fixed within an epoch; a lazy build inside one (the first
// bicc-family query after a deferred rebuild) changes num_bcc, build_costs
// and oracle_epochs without a new epoch.
type Info struct {
	GraphN        int    `json:"graph_n"`
	GraphM        int    `json:"graph_m"`
	Omega         int    `json:"omega"`
	K             int    `json:"k"`
	Workers       int    `json:"workers"`
	NumComponents int    `json:"num_components"`
	NumBCC        int    `json:"num_bcc"`
	Epoch         int64  `json:"epoch"`
	Kinds         []Kind `json:"kinds"`
	// OracleEpochs maps each oracle to the epoch its built state corresponds
	// to: Epoch when fresh, lagging while its rebuild is deferred, -1 when
	// it has never been built (a recovered graph before the first
	// biconnectivity query, for example).
	OracleEpochs map[string]int64     `json:"oracle_epochs,omitempty"`
	BuildCosts   map[string]asym.Cost `json:"build_costs"`
	Build        obs.BuildInfo        `json:"build"`
}

// NewServer returns the HTTP handler serving a single engine: the engine
// is attached as the default graph of a fresh registry, so the un-prefixed
// endpoints behave exactly as before the multi-graph refactor and the
// /graphs endpoints report it. Graph *creation* stays disabled (quota 1 =
// the wrapped engine): a single-engine surface must not silently grow an
// open build API — embedders who want multi-tenancy mount
// NewRegistryServer(NewRegistry(...)) instead. The caller keeps ownership
// of e's lifecycle.
func NewServer(e *Engine) http.Handler {
	reg := NewRegistry(RegistryConfig{
		Engine:      Config{Omega: e.omega, K: e.k, Seed: e.seed, Workers: e.workers, SymLimit: e.sym},
		Pool:        e.Pool(),
		MaxInflight: int(e.maxInflight),
		MaxGraphs:   1,
		// Serve the wrapped engine's own registry at /metrics — its series
		// were registered there when the caller built it.
		Metrics: e.MetricsRegistry(),
	})
	if err := reg.Attach("default", e); err != nil {
		panic(err) // fresh registry: unreachable
	}
	return NewRegistryServer(reg)
}

// resolver locates the engine a request addresses.
type resolver func(r *http.Request) (*Engine, error)

// NewRegistryServer returns the HTTP handler serving every graph in reg.
// Method-qualified mux patterns give wrong-method requests a 405 with an
// Allow header for free.
func NewRegistryServer(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	def := func(*http.Request) (*Engine, error) { return reg.Default() }
	named := func(r *http.Request) (*Engine, error) { return reg.Get(r.PathValue("name")) }

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		st, ok := reg.Status(reg.DefaultName())
		if ok && st.State == StateReady {
			writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
			return
		}
		state := "no graphs"
		if ok {
			state = string(st.State)
		}
		// Retry-After only for transient states; a failed build is
		// terminal until the graph is deleted, so no retry hint (same
		// rule as resolveEngine).
		if !ok || st.State == StateBuilding {
			w.Header().Set("Retry-After", retryAfter)
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ok": false, "state": state})
	})

	// Observability: the fleet's metric registry and slow-request ring.
	mux.Handle("GET /metrics", reg.Metrics().Handler())
	mux.Handle("GET /debug/traces", reg.Tracer().Handler())

	// Single-graph endpoints, twice: un-prefixed against the default graph
	// and under /graphs/{name}/ against any graph. The nameOf funcs label
	// request traces without resolving the engine twice.
	routes := []struct {
		prefix  string
		resolve resolver
		nameOf  func(*http.Request) string
	}{
		{"", def, func(*http.Request) string { return reg.DefaultName() }},
		{"/graphs/{name}", named, func(r *http.Request) string { return r.PathValue("name") }},
	}
	for _, rt := range routes {
		mux.HandleFunc("GET "+rt.prefix+"/info", handleInfo(rt.resolve))
		mux.HandleFunc("GET "+rt.prefix+"/stats", handleStats(rt.resolve))
		mux.HandleFunc("POST "+rt.prefix+"/query", handleQuery(reg.tracer, rt.resolve, rt.nameOf))
		mux.HandleFunc("POST "+rt.prefix+"/batch", handleBatch(reg.tracer, rt.resolve, rt.nameOf))
		mux.HandleFunc("POST "+rt.prefix+"/update", handleUpdate(reg.tracer, rt.resolve, rt.nameOf))
	}

	mux.HandleFunc("GET /graphs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, GraphListResponse{Graphs: reg.List(), Default: reg.DefaultName()})
	})
	mux.HandleFunc("POST /graphs", func(w http.ResponseWriter, r *http.Request) {
		// Quota check before the (potentially 64 MB) body decode: a full
		// registry rejects every create, so shed it without paying for
		// the parse.
		if reg.AtQuota() {
			w.Header().Set("Retry-After", retryAfter)
			httpError(w, http.StatusTooManyRequests, "%v", ErrTooManyGraphs)
			return
		}
		var spec GraphSpec
		if _, err := decodeBody(w, r, maxGraphSpecBytes, &spec); err != nil {
			return
		}
		st, err := reg.Create(spec)
		if err != nil {
			status := http.StatusBadRequest
			switch {
			case errors.Is(err, ErrGraphExists):
				status = http.StatusConflict
			case errors.Is(err, ErrTooManyGraphs):
				status = http.StatusTooManyRequests
				w.Header().Set("Retry-After", retryAfter)
			}
			httpError(w, status, "%v", err)
			return
		}
		code := http.StatusAccepted // building in the background
		switch st.State {
		case StateReady:
			code = http.StatusCreated
		case StateFailed:
			code = http.StatusUnprocessableEntity
		}
		writeJSON(w, code, st)
	})
	mux.HandleFunc("GET /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := reg.Status(r.PathValue("name"))
		if !ok {
			httpError(w, http.StatusNotFound, "graph %q not found", r.PathValue("name"))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /graphs/{name}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		switch err := reg.Delete(name); {
		case err == nil:
			writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
		case errors.Is(err, ErrDefaultGraph):
			httpError(w, http.StatusConflict, "%v", err)
		case errors.Is(err, ErrGraphNotFound):
			httpError(w, http.StatusNotFound, "%v", err)
		default:
			httpError(w, http.StatusInternalServerError, "%v", err)
		}
	})
	return mux
}

// resolveEngine runs the resolver and writes the lifecycle error response
// when the engine is unavailable: 404 for an unknown graph, 503 +
// Retry-After while building (transient), and a plain 503 for a failed
// build — terminal until the graph is deleted, so no retry hint.
func resolveEngine(w http.ResponseWriter, r *http.Request, resolve resolver) (*Engine, bool) {
	e, err := resolve(r)
	if err == nil {
		return e, true
	}
	if errors.Is(err, ErrGraphNotFound) {
		httpError(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	if errors.Is(err, ErrGraphNotReady) {
		w.Header().Set("Retry-After", retryAfter)
	}
	httpError(w, http.StatusServiceUnavailable, "%v", err)
	return nil, false
}

// admit reserves an in-flight slot on e, writing the 429 + Retry-After
// response on rejection. The returned release must be called when the
// request finishes.
func admit(w http.ResponseWriter, e *Engine) (func(), bool) {
	release, err := e.Admit()
	if err != nil {
		w.Header().Set("Retry-After", retryAfter)
		httpError(w, http.StatusTooManyRequests, "%v", err)
		return nil, false
	}
	return release, true
}

func handleInfo(resolve resolver) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := resolveEngine(w, r, resolve)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, infoOf(e))
	}
}

func handleStats(resolve resolver) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := resolveEngine(w, r, resolve)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, e.Stats())
	}
}

// Traced request handlers. Each builds an obs.Req (nil-safe; Finish hands
// it to the tracer only when the request is slow enough to capture) with a
// span per phase. The span order is the handlers' actual order — admission
// deliberately comes BEFORE the body decode, so a shed request costs O(1)
// rather than a full decode; docs/observability.md has the glossary.

func handleQuery(tr *obs.Tracer, resolve resolver, nameOf func(*http.Request) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := resolveEngine(w, r, resolve)
		if !ok {
			return
		}
		treq := tr.Start(nameOf(r), "query")
		// Admission comes before the body decode: a shed request must cost
		// O(1), not a full decode (the same rationale as the byte limits).
		release, ok := admit(w, e)
		treq.Phase("admit")
		if !ok {
			treq.Finish(http.StatusTooManyRequests)
			return
		}
		defer release()
		var q Query
		status, err := decodeBody(w, r, maxQueryBytes, &q)
		treq.Phase("decode")
		if err != nil {
			treq.Finish(status)
			return
		}
		res := e.Query(q)
		treq.Phase("answer")
		status = http.StatusOK
		if res.Err != "" {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, res)
		treq.Phase("encode")
		treq.Finish(status)
	}
}

func handleBatch(tr *obs.Tracer, resolve resolver, nameOf func(*http.Request) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := resolveEngine(w, r, resolve)
		if !ok {
			return
		}
		treq := tr.Start(nameOf(r), "batch")
		release, ok := admit(w, e)
		treq.Phase("admit")
		if !ok {
			treq.Finish(http.StatusTooManyRequests)
			return
		}
		defer release()
		sc := batchPool.Get().(*batchScratch)
		defer putBatchScratch(sc)
		req := BatchRequest{Queries: sc.queries[:0]}
		status, err := decodeBatchBody(w, r, sc, &req)
		treq.Phase("decode")
		if err != nil {
			treq.Finish(status)
			return
		}
		if len(req.Queries) > MaxBatch {
			httpError(w, http.StatusRequestEntityTooLarge,
				"batch of %d exceeds limit %d", len(req.Queries), MaxBatch)
			treq.Finish(http.StatusRequestEntityTooLarge)
			return
		}
		if req.Staleness != "" {
			// The batch-level default fills only unset queries, so a mixed
			// batch can still pin individual queries to strict. An invalid
			// value is rejected per-query by dispatch, like any other.
			for i := range req.Queries {
				if req.Queries[i].Staleness == "" {
					req.Queries[i].Staleness = req.Staleness
				}
			}
		}
		treq.SetDetail(fmt.Sprintf("queries=%d", len(req.Queries)))
		// DoWait reports how much of the dispatch interval was pool queue
		// wait, splitting it into the pool_queue and answer spans.
		off := treq.Elapsed()
		results, wait := e.DoWait(req.Queries)
		dur := treq.Elapsed() - off
		treq.Add("pool_queue", off, wait)
		treq.Add("answer", off+wait, dur-wait)
		// The body is decoded, so its buffer takes the response.
		sc.buf = appendBatchResponse(sc.buf[:0], results)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(sc.buf) // a failed write means the client went away
		treq.Phase("encode")
		treq.Finish(http.StatusOK)
	}
}

func handleUpdate(tr *obs.Tracer, resolve resolver, nameOf func(*http.Request) string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		e, ok := resolveEngine(w, r, resolve)
		if !ok {
			return
		}
		treq := tr.Start(nameOf(r), "update")
		// Updates go through the same per-graph admission as queries: the
		// in-flight count is what Registry.Delete's drain waits on, and a
		// capped graph must shed update bursts too (a wait=true update can
		// hold its slot until the rebuild publishes — that is the point).
		release, ok := admit(w, e)
		treq.Phase("admit")
		if !ok {
			treq.Finish(http.StatusTooManyRequests)
			return
		}
		defer release()
		var req UpdateRequest
		status, err := decodeBody(w, r, maxUpdateBytes, &req)
		treq.Phase("decode")
		if err != nil {
			treq.Finish(status)
			return
		}
		if len(req.Add)+len(req.Remove) > MaxUpdateEdges {
			httpError(w, http.StatusRequestEntityTooLarge,
				"update of %d edges exceeds limit %d", len(req.Add)+len(req.Remove), MaxUpdateEdges)
			treq.Finish(http.StatusRequestEntityTooLarge)
			return
		}
		treq.SetDetail(fmt.Sprintf("add=%d remove=%d wait=%t", len(req.Add), len(req.Remove), req.Wait))
		st, uerr := e.Update(Update{Add: req.Add, Remove: req.Remove}, req.Wait)
		treq.Phase("update")
		if uerr != nil {
			// 400 is reserved for requests the client got wrong (bad
			// vertices, absent removals). A server-side failure — the
			// engine closing, the rebuild of a valid batch failing, the
			// durable log rejecting the append — is 5xx.
			status = http.StatusBadRequest
			switch {
			case errors.Is(uerr, ErrClosed):
				status = http.StatusServiceUnavailable
			case errors.Is(uerr, ErrRebuildFailed), errors.Is(uerr, ErrPersist):
				status = http.StatusInternalServerError
			}
			httpError(w, status, "%v", uerr)
			treq.Finish(status)
			return
		}
		writeJSON(w, http.StatusOK, UpdateResponse{
			Seq: st.Seq, Epoch: st.Epoch, Pending: st.Pending, Applied: st.Applied,
		})
		treq.Phase("encode")
		treq.Finish(http.StatusOK)
	}
}

// infoOf reads everything from the immutable snapshot — no engine lock, no
// history copies — so /info polls never contend with update staging.
func infoOf(e *Engine) Info {
	sn := e.snap.Load()
	info := Info{
		GraphN:       sn.g.N(),
		GraphM:       sn.g.M(),
		Omega:        e.omega,
		K:            e.k,
		Workers:      e.workers,
		Epoch:        sn.epoch,
		Kinds:        Kinds,
		OracleEpochs: sn.oracleEpochs(),
		BuildCosts:   sn.buildCosts(),
	}
	info.NumComponents, info.NumBCC = sn.counts()
	info.Build = obs.Build()
	return info
}

// decodeBody decodes a JSON request body into out, enforcing the byte limit
// before any allocation proportional to the body happens. On failure it has
// already written the error response — 413 when the limit tripped, 400
// otherwise — and returns the status it wrote (0 on success) so traced
// handlers can finish their trace with the real outcome.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, out any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(body).Decode(out)
	if err == nil {
		return 0, nil
	}
	return bodyError(w, limit, err), err
}

// decodeBatchBody reads the whole /batch body into sc.buf and decodes it
// into req (whose Queries is sc.queries' backing array) with the /batch
// codec. Unlike decodeBody, any body over maxBatchBytes is a 413, even one
// holding a complete value before the limit. Errors are written and
// reported as in decodeBody.
func decodeBatchBody(w http.ResponseWriter, r *http.Request, sc *batchScratch, req *BatchRequest) (int, error) {
	if r.ContentLength > maxBatchBytes {
		err := &http.MaxBytesError{Limit: maxBatchBytes}
		return bodyError(w, maxBatchBytes, err), err
	}
	var err error
	sc.buf, err = readBody(http.MaxBytesReader(w, r.Body, maxBatchBytes), sc.buf[:0])
	if err == nil {
		err = decodeBatchRequest(sc.buf, req)
		sc.queries = req.Queries[:0]
	}
	if err != nil {
		return bodyError(w, maxBatchBytes, err), err
	}
	return 0, nil
}

// bodyError writes the error response for a request body that failed to
// read or decode — 413 when the byte limit tripped, 400 otherwise — and
// returns its status.
func bodyError(w http.ResponseWriter, limit int64, err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", limit)
		return http.StatusRequestEntityTooLarge
	}
	httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
