package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
)

// waitForState polls until the named graph reaches the wanted state.
func waitForState(t *testing.T, reg *Registry, name string, want GraphState) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := reg.Status(name); ok && st.State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, ok := reg.Status(name)
	t.Fatalf("graph %q never reached %s (now %+v ok=%v)", name, want, st, ok)
}

func doReq(t *testing.T, method, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, b
}

// TestHealthzNotReadyWindow is the readiness satellite: /healthz must
// report 503 from the moment the default graph is registered until its
// first snapshot is published, then 200 — and per-graph queries during the
// build window get 503 + Retry-After, not an answer from a half-built
// oracle.
func TestHealthzNotReadyWindow(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	t.Cleanup(reg.Close)
	gate := make(chan struct{})
	reg.beforeBuild = func(string) { <-gate }
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)

	// Empty registry: not ready.
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty registry /healthz: %d, want 503", resp.StatusCode)
	}

	if _, err := reg.Create(GraphSpec{Name: "default", N: 64, Deg: 3}); err != nil {
		t.Fatal(err)
	}

	// The build is gated: the not-ready window is open.
	var health map[string]any
	resp, body := doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || health["ok"] != false || health["state"] != "building" {
		t.Fatalf("building /healthz: code=%d body=%v", resp.StatusCode, health)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/query", []byte(`{"kind":"component","u":0}`))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query during build: code=%d retry-after=%q, want 503 + Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/stats", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stats during build: code=%d, want 503", resp.StatusCode)
	}

	// Publish the first snapshot; readiness flips.
	close(gate)
	waitForState(t, reg, "default", StateReady)
	resp, body = doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	health = nil
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || health["ok"] != true {
		t.Fatalf("ready /healthz: code=%d body=%v", resp.StatusCode, health)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/query", []byte(`{"kind":"component","u":0}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after ready: %d", resp.StatusCode)
	}
}

// TestRegistryLifecycleHTTP walks the whole multi-graph lifecycle over
// HTTP: create two graphs (one generated, one uploaded via graphio), query
// both with per-graph answers isolated, list, delete one, and hit the
// error surfaces (duplicate, unknown, default-delete).
func TestRegistryLifecycleHTTP(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Engine: Config{Omega: 16, Seed: 5}})
	t.Cleanup(reg.Close)
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)

	// Graph A: generated, becomes the default.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/graphs",
		[]byte(`{"name":"a","gen":"random-regular","n":120,"deg":3,"graph_seed":1,"wait":true}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create a: code=%d body=%s", resp.StatusCode, body)
	}

	// Graph B: uploaded edge list (a path of 4 vertices → 2 bridges from 3
	// edges; structurally nothing like A).
	spec := GraphSpec{Name: "b", Graphio: "# 4 3\n0 1\n1 2\n2 3\n", Wait: true}
	sb, _ := json.Marshal(spec)
	resp, body = doReq(t, http.MethodPost, ts.URL+"/graphs", sb)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create b: code=%d body=%s", resp.StatusCode, body)
	}

	// Listing shows both, A as default.
	var list GraphListResponse
	resp, body = doReq(t, http.MethodGet, ts.URL+"/graphs", nil)
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(list.Graphs) != 2 || list.Default != "a" {
		t.Fatalf("list: code=%d %+v", resp.StatusCode, list)
	}
	for _, g := range list.Graphs {
		if g.State != StateReady {
			t.Fatalf("graph %s state %s", g.Name, g.State)
		}
	}

	// Per-graph info reflects each graph's own shape (isolation at the
	// metadata level).
	var ia, ib Info
	_, body = doReq(t, http.MethodGet, ts.URL+"/graphs/a/info", nil)
	if err := json.Unmarshal(body, &ia); err != nil {
		t.Fatal(err)
	}
	_, body = doReq(t, http.MethodGet, ts.URL+"/graphs/b/info", nil)
	if err := json.Unmarshal(body, &ib); err != nil {
		t.Fatal(err)
	}
	if ia.GraphN != 120 || ib.GraphN != 4 || ib.GraphM != 3 {
		t.Fatalf("per-graph info not isolated: a=%+v b=%+v", ia, ib)
	}

	// Un-prefixed endpoints are the default graph: /info must equal
	// /graphs/a/info.
	var idef Info
	_, body = doReq(t, http.MethodGet, ts.URL+"/info", nil)
	if err := json.Unmarshal(body, &idef); err != nil {
		t.Fatal(err)
	}
	if idef.GraphN != ia.GraphN || idef.GraphM != ia.GraphM {
		t.Fatalf("default routing broken: /info=%+v /graphs/a/info=%+v", idef, ia)
	}

	// Per-graph answers come from that graph's oracle: vertex 1 on the
	// path is an articulation point; on the 3-regular graph A it is not.
	var ra, rb Result
	_, body = doReq(t, http.MethodPost, ts.URL+"/graphs/a/query", []byte(`{"kind":"articulation","u":1}`))
	if err := json.Unmarshal(body, &ra); err != nil {
		t.Fatal(err)
	}
	_, body = doReq(t, http.MethodPost, ts.URL+"/graphs/b/query", []byte(`{"kind":"articulation","u":1}`))
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatal(err)
	}
	if ra.Bool == nil || rb.Bool == nil || *ra.Bool || !*rb.Bool {
		t.Fatalf("cross-graph isolation: a=%+v b=%+v (want false/true)", ra, rb)
	}

	// Update one graph; the other's epoch must not move.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/graphs/b/update",
		[]byte(`{"add":[[0,3]],"wait":true}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update b: code=%d body=%s", resp.StatusCode, body)
	}
	var sa, sbJSON Stats
	_, body = doReq(t, http.MethodGet, ts.URL+"/graphs/a/stats", nil)
	if err := json.Unmarshal(body, &sa); err != nil {
		t.Fatal(err)
	}
	_, body = doReq(t, http.MethodGet, ts.URL+"/graphs/b/stats", nil)
	if err := json.Unmarshal(body, &sbJSON); err != nil {
		t.Fatal(err)
	}
	if sa.Epoch != 0 || sbJSON.Epoch != 1 {
		t.Fatalf("update isolation: a.epoch=%d b.epoch=%d (want 0, 1)", sa.Epoch, sbJSON.Epoch)
	}

	// Error surfaces.
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"a","n":64,"deg":3}`))
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"///","n":64}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid name: %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"c","gen":"mystery"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown generator: %d, want 400", resp.StatusCode)
	}
	// The memory-DoS guards: n and n·deg/2 are capped before any
	// generation-sized work runs.
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs",
		[]byte(`{"name":"c","gen":"gnm","n":4194304,"deg":1000000000}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized deg: %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"c","n":16777216}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized n: %d, want 400", resp.StatusCode)
	}
	// gnm edge counts outside [n-1, n(n-1)/2] would spin or panic in the
	// generator; both must be synchronous 400s.
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"c","gen":"gnm","n":16,"deg":1000}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gnm over-dense: %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"c","gen":"gnm","n":512,"deg":1}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gnm under-connected: %d, want 400", resp.StatusCode)
	}
	// Graph quota: with MaxGraphs 2 (a and b live) any further create is
	// shed with 429, without paying for a build.
	reg.mu.Lock()
	reg.cfg.MaxGraphs = 2
	reg.mu.Unlock()
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"c","n":64,"deg":3}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota create: %d, want 429", resp.StatusCode)
	}
	reg.mu.Lock()
	reg.cfg.MaxGraphs = 0
	reg.mu.Unlock()
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs", []byte(`{"name":"c","graphio":"garbage"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad graphio: %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs/nope/query", []byte(`{"kind":"component","u":0}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph query: %d, want 404", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/graphs/a", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete default: %d, want 409", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/graphs/nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown: %d, want 404", resp.StatusCode)
	}

	// Delete B: immediate 404s afterwards; name becomes reusable.
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/graphs/b", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete b: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/graphs/b/query", []byte(`{"kind":"component","u":0}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("query deleted graph: %d, want 404", resp.StatusCode)
	}
	resp, body = doReq(t, http.MethodPost, ts.URL+"/graphs",
		[]byte(`{"name":"b","n":64,"deg":3,"wait":true}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("recreate b: code=%d body=%s", resp.StatusCode, body)
	}
}

// TestAdmissionControl covers Engine.Admit directly and the 429 surface
// over HTTP: with MaxInflight=1 and one slot held, every request is
// rejected with Retry-After and counted in /stats.
func TestAdmissionControl(t *testing.T) {
	g := graph.RandomRegular(100, 3, 7)
	e := New(g, Config{Omega: 8, Seed: 5, MaxInflight: 1})
	t.Cleanup(e.Close)

	release, err := e.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Admit(); !errors.Is(err, ErrBusy) {
		t.Fatalf("second admit: %v, want ErrBusy", err)
	}

	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(ts.Close)
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/batch",
		[]byte(`{"queries":[{"kind":"component","u":0}]}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("batch at capacity: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/query", []byte(`{"kind":"component","u":0}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("query at capacity: %d, want 429", resp.StatusCode)
	}

	release()
	resp, _ = doReq(t, http.MethodPost, ts.URL+"/batch",
		[]byte(`{"queries":[{"kind":"component","u":0}]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch after release: %d", resp.StatusCode)
	}

	st := e.Stats()
	if st.Admission.MaxInflight != 1 || st.Admission.Rejected != 3 || st.Admission.Inflight != 0 {
		t.Fatalf("admission stats %+v (want cap 1, 3 rejections, 0 inflight)", st.Admission)
	}
	var sj Stats
	_, body := doReq(t, http.MethodGet, ts.URL+"/stats", nil)
	if err := json.Unmarshal(body, &sj); err != nil {
		t.Fatal(err)
	}
	if sj.Admission.Rejected != 3 {
		t.Fatalf("/stats admission.rejected = %d, want 3", sj.Admission.Rejected)
	}
	if sj.Pool.Size <= 0 || sj.Pool.Tasks == 0 {
		t.Fatalf("/stats pool telemetry empty: %+v", sj.Pool)
	}
}

// TestMethodNotAllowedAllow is the 405 satellite: wrong methods on every
// endpoint get 405 with an Allow header naming the right method — never a
// zero-value decode of a GET's empty body.
func TestMethodNotAllowedAllow(t *testing.T) {
	g := graph.Grid2D(4, 4)
	e := New(g, Config{Omega: 8, Seed: 5})
	t.Cleanup(e.Close)
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		method, path, allow string
	}{
		{http.MethodGet, "/query", "POST"},
		{http.MethodGet, "/batch", "POST"},
		{http.MethodGet, "/update", "POST"},
		{http.MethodPost, "/stats", "GET"},
		{http.MethodPost, "/info", "GET"},
		{http.MethodPost, "/healthz", "GET"},
		{http.MethodPut, "/graphs", "POST"},
		{http.MethodGet, "/graphs/default/query", "POST"},
		{http.MethodGet, "/graphs/default/batch", "POST"},
		{http.MethodGet, "/graphs/default/update", "POST"},
		{http.MethodPost, "/graphs/default/stats", "GET"},
		{http.MethodPost, "/graphs/default/info", "GET"},
	} {
		resp, _ := doReq(t, tc.method, ts.URL+tc.path, nil)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: code=%d want 405", tc.method, tc.path, resp.StatusCode)
			continue
		}
		if allow := resp.Header.Get("Allow"); !strings.Contains(allow, tc.allow) {
			t.Errorf("%s %s: Allow=%q, want it to contain %q", tc.method, tc.path, allow, tc.allow)
		}
	}
}

// TestSharedPoolAcrossGraphs checks the tentpole bound: two engines
// sharing one pool never run more worker tasks at once than the pool has
// slots, no matter how many concurrent batches arrive, and both graphs'
// queue waits are accounted.
func TestSharedPoolAcrossGraphs(t *testing.T) {
	pool := NewPool(2)
	reg := NewRegistry(RegistryConfig{Engine: Config{Omega: 8, Seed: 5}, Pool: pool})
	t.Cleanup(reg.Close)
	for _, name := range []string{"x", "y"} {
		if _, err := reg.Create(GraphSpec{Name: name, N: 200, Deg: 3, GraphSeed: 9, Wait: true}); err != nil {
			t.Fatal(err)
		}
	}
	ex, _ := reg.Get("x")
	ey, _ := reg.Get("y")
	if ex.Pool() != pool || ey.Pool() != pool {
		t.Fatal("engines not sharing the registry pool")
	}

	qs := mixedQueries(ex.Graph(), 2000, 11)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		e := ex
		if i%2 == 1 {
			e = ey
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				for _, r := range e.Do(qs) {
					if r.Err != "" {
						t.Errorf("query error: %s", r.Err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	ps := pool.Stats()
	if ps.PeakInUse > int64(pool.Size()) {
		t.Fatalf("pool peak %d exceeded size %d", ps.PeakInUse, pool.Size())
	}
	if ps.Tasks == 0 {
		t.Fatal("pool ran no tasks")
	}
	if ex.Stats().Pool.Tasks != ps.Tasks || ey.Stats().Pool.Tasks != ps.Tasks {
		t.Fatalf("pool stats not shared: x=%+v y=%+v pool=%+v",
			ex.Stats().Pool, ey.Stats().Pool, ps)
	}
}

// TestDeleteDrainsInflight checks delete-then-drain: a deleted graph's
// engine keeps serving its in-flight request to completion, then closes.
func TestDeleteDrainsInflight(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Engine: Config{Omega: 8, Seed: 5}})
	t.Cleanup(reg.Close)
	if _, err := reg.Create(GraphSpec{Name: "default", N: 64, Deg: 3, Wait: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Create(GraphSpec{Name: "victim", N: 64, Deg: 3, Wait: true}); err != nil {
		t.Fatal(err)
	}
	e, err := reg.Get("victim")
	if err != nil {
		t.Fatal(err)
	}
	release, err := e.Admit()
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Get("victim"); err == nil {
		t.Fatal("deleted graph still resolvable")
	}
	// The in-flight request still answers against its engine handle.
	if res := e.Query(Query{Kind: KindComponent, U: 0}); res.Err != "" || res.Label == nil {
		t.Fatalf("in-flight query after delete: %+v", res)
	}
	release()
	// After the drain the engine refuses updates (closed).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := e.Update(Update{Add: [][2]int32{{0, 1}}}, false); errors.Is(err, ErrClosed) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("engine never closed after drain")
}

// TestCreateFailedState: a build that panics lands the graph in "failed"
// with the cause inspectable and queries mapped to 503.
func TestCreateFailedState(t *testing.T) {
	reg := NewRegistry(RegistryConfig{})
	t.Cleanup(reg.Close)
	var stateMu sync.Mutex
	states := map[string]GraphState{}
	reg.cfg.OnState = func(name string, st GraphState, _ string) {
		stateMu.Lock()
		states[name] = st
		stateMu.Unlock()
	}
	reg.beforeBuild = func(name string) {
		if name == "boom" {
			panic("synthetic build failure")
		}
	}
	if _, err := reg.Create(GraphSpec{Name: "boom", N: 64, Deg: 3}); err != nil {
		t.Fatal(err)
	}
	waitForState(t, reg, "boom", StateFailed)
	st, _ := reg.Status("boom")
	if st.Error == "" {
		t.Fatalf("failed graph carries no error: %+v", st)
	}
	stateMu.Lock()
	if states["boom"] != StateFailed {
		t.Errorf("OnState not fired for failure: %v", states)
	}
	stateMu.Unlock()
	if _, err := reg.Get("boom"); err == nil {
		t.Fatal("failed graph resolvable")
	}
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/graphs/boom/query", []byte(`{"kind":"component","u":0}`))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query failed graph: %d, want 503", resp.StatusCode)
	}
	// boom is the first (hence default) graph, but a *failed* default may
	// be deleted — that is the only restart-free recovery path — and the
	// name becomes reusable.
	if err := reg.Delete("boom"); err != nil {
		t.Fatalf("delete failed default graph: %v", err)
	}
	if name := reg.DefaultName(); name != "" {
		t.Fatalf("default after deleting sole graph: %q, want empty", name)
	}
	reg.beforeBuild = nil
	if _, err := reg.Create(GraphSpec{Name: "boom", N: 64, Deg: 3, Wait: true}); err != nil {
		t.Fatalf("recreate after failed delete: %v", err)
	}
	if name := reg.DefaultName(); name != "boom" {
		t.Fatalf("recreated graph not default: %q", name)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after recovery: %d, want 200", resp.StatusCode)
	}
}
