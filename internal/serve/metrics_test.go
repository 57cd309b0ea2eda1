package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// newMetricsTestServer starts a registry server with one ready graph named
// "default" and returns the registry plus the test server.
func newMetricsTestServer(t *testing.T, cfg RegistryConfig) (*Registry, *httptest.Server) {
	t.Helper()
	if cfg.Engine.Omega == 0 {
		cfg.Engine = Config{Omega: 16, Seed: 5}
	}
	reg := NewRegistry(cfg)
	t.Cleanup(reg.Close)
	if _, err := reg.Create(GraphSpec{Name: "default", N: 64, Deg: 3, Wait: true}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewRegistryServer(reg))
	t.Cleanup(ts.Close)
	return reg, ts
}

func scrape(t *testing.T, base string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Fatalf("GET /metrics Content-Type %q, want %q", ct, obs.ExpositionContentType)
	}
	exp, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("exposition unparseable: %v", err)
	}
	return exp
}

// TestMetricsEndpointFamiliesAndHygiene drives traffic through every
// instrumented path, then asserts GET /metrics parses, every registered
// family is present, and label cardinality stays bounded: every label
// value comes from a fixed vocabulary (graph names, query kinds, rebuild
// strategies, cache layers, bucket bounds) — never per-request data like
// vertex ids.
func TestMetricsEndpointFamiliesAndHygiene(t *testing.T) {
	_, ts := newMetricsTestServer(t, RegistryConfig{})

	for _, kind := range []string{"connected", "component", "bridge", "articulation", "biconnected"} {
		body := fmt.Sprintf(`{"kind":%q,"u":1,"v":2}`, kind)
		if code := postJSON(t, ts.URL+"/query", json.RawMessage(body), nil); code != http.StatusOK {
			t.Fatalf("query %s: %d", kind, code)
		}
	}
	if code := postJSON(t, ts.URL+"/batch",
		json.RawMessage(`{"queries":[{"kind":"connected","u":0,"v":1},{"kind":"component","u":3}]}`), nil); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}
	if code := postJSON(t, ts.URL+"/update",
		json.RawMessage(`{"add":[[0,5],[1,9]],"wait":true}`), nil); code != http.StatusOK {
		t.Fatalf("update: %d", code)
	}

	exp := scrape(t, ts.URL)
	for _, fam := range []string{
		"wec_query_duration_seconds", "wec_queries_total", "wec_query_errors_total",
		"wec_batch_size_queries", "wec_pool_queue_wait_seconds",
		"wec_admission_rejected_total", "wec_admission_inflight",
		"wec_rebuild_duration_seconds", "wec_rebuild_failures_total",
		"wec_rebuilds_avoided_total", "wec_lazy_rebuilds_total",
		"wec_published_epoch", "wec_oracle_epoch", "wec_pending_batches",
		"wec_edges_added_total", "wec_edges_removed_total",
		"wec_cache_hits_total", "wec_cache_misses_total", "wec_cache_evictions_total",
		"wec_pool_size", "wec_pool_in_use", "wec_pool_tasks_total", "wec_graphs",
	} {
		if !exp.HasFamily(fam) {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}

	// The update published epoch 1 through one of the ladder strategies.
	var rebuilds float64
	for _, s := range exp.Samples {
		if s.Name == "wec_rebuild_duration_seconds_count" {
			rebuilds += s.Value
		}
	}
	if rebuilds < 1 {
		t.Errorf("no rebuild observed in wec_rebuild_duration_seconds after update")
	}

	allowed := map[string]map[string]bool{
		"graph": {"default": true},
		"kind": {"connected": true, "component": true, "bridge": true,
			"articulation": true, "biconnected": true, "2ecc": true},
		"strategy": {StrategyPatchedInsert: true, StrategyPatchedDelete: true,
			StrategyRebased: true, StrategyFull: true, StrategyLazy: true},
		"oracle": {"conn": true, "bicc": true},
		"cache":  {"result": true, "cluster": true, "batch_dedup": true},
	}
	for _, s := range exp.Samples {
		for k, v := range s.Labels {
			if k == "le" {
				if v != "+Inf" {
					if _, err := strconv.ParseFloat(v, 64); err != nil {
						t.Errorf("%s: non-numeric le %q", s.Name, v)
					}
				}
				continue
			}
			vocab, ok := allowed[k]
			if !ok {
				t.Errorf("%s: unexpected label key %q", s.Name, k)
				continue
			}
			if !vocab[v] {
				t.Errorf("%s: label %s=%q outside the bounded vocabulary", s.Name, k, v)
			}
		}
	}
}

// TestMetricsDeletedGraphRetired asserts a deleted graph's series leave
// the exposition: a scrape after DELETE must not report the ghost.
func TestMetricsDeletedGraphRetired(t *testing.T) {
	reg, ts := newMetricsTestServer(t, RegistryConfig{})
	if _, err := reg.Create(GraphSpec{Name: "temp", N: 64, Deg: 3, Wait: true}); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/graphs/temp/query",
		json.RawMessage(`{"kind":"connected","u":0,"v":1}`), nil); code != http.StatusOK {
		t.Fatalf("query temp: %d", code)
	}
	if !hasGraphLabel(scrape(t, ts.URL), "temp") {
		t.Fatal("created graph temp has no series before delete")
	}
	if err := reg.Delete("temp"); err != nil {
		t.Fatal(err)
	}
	if hasGraphLabel(scrape(t, ts.URL), "temp") {
		t.Error("deleted graph temp still has series in /metrics")
	}
}

func hasGraphLabel(exp *obs.Exposition, name string) bool {
	for _, s := range exp.Samples {
		if s.Labels["graph"] == name {
			return true
		}
	}
	return false
}

// TestDebugTracesCaptureAboveThreshold runs with SlowQuery < 0 (capture
// all): every request must land in /debug/traces with its phase spans.
func TestDebugTracesCaptureAboveThreshold(t *testing.T) {
	_, ts := newMetricsTestServer(t, RegistryConfig{SlowQuery: -1})
	if code := postJSON(t, ts.URL+"/query",
		json.RawMessage(`{"kind":"connected","u":0,"v":1}`), nil); code != http.StatusOK {
		t.Fatalf("query: %d", code)
	}
	if code := postJSON(t, ts.URL+"/batch",
		json.RawMessage(`{"queries":[{"kind":"component","u":3}]}`), nil); code != http.StatusOK {
		t.Fatalf("batch: %d", code)
	}

	page := tracesPage(t, ts.URL)
	if page.Captured != 2 || len(page.Traces) != 2 {
		t.Fatalf("captured=%d traces=%d, want 2/2", page.Captured, len(page.Traces))
	}
	byOp := map[string]obs.Trace{}
	for _, tr := range page.Traces {
		byOp[tr.Op] = tr
	}
	q, ok := byOp["query"]
	if !ok || q.Graph != "default" || q.Status != http.StatusOK {
		t.Fatalf("query trace missing or wrong: %+v", byOp)
	}
	spans := map[string]bool{}
	for _, sp := range q.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"admit", "decode", "answer", "encode"} {
		if !spans[want] {
			t.Errorf("query trace missing span %q (got %v)", want, q.Spans)
		}
	}
	b, ok := byOp["batch"]
	if !ok || !strings.Contains(b.Detail, "queries=1") {
		t.Errorf("batch trace missing or without batch-size detail: %+v", b)
	}
	bspans := map[string]bool{}
	for _, sp := range b.Spans {
		bspans[sp.Name] = true
	}
	if !bspans["pool_queue"] || !bspans["answer"] {
		t.Errorf("batch trace missing pool_queue/answer split: %v", b.Spans)
	}
}

// TestDebugTracesSkipBelowThreshold runs with an unreachable threshold:
// requests are seen but never captured.
func TestDebugTracesSkipBelowThreshold(t *testing.T) {
	_, ts := newMetricsTestServer(t, RegistryConfig{SlowQuery: time.Hour})
	for i := 0; i < 3; i++ {
		if code := postJSON(t, ts.URL+"/query",
			json.RawMessage(`{"kind":"connected","u":0,"v":1}`), nil); code != http.StatusOK {
			t.Fatalf("query: %d", code)
		}
	}
	page := tracesPage(t, ts.URL)
	if page.Seen != 3 || page.Captured != 0 || len(page.Traces) != 0 {
		t.Fatalf("seen=%d captured=%d traces=%d, want 3/0/0", page.Seen, page.Captured, len(page.Traces))
	}
}

// TestDebugTracesRingBounded floods more requests than the ring holds:
// the page stays bounded at the capacity while Seen keeps counting.
func TestDebugTracesRingBounded(t *testing.T) {
	_, ts := newMetricsTestServer(t, RegistryConfig{SlowQuery: -1})
	total := obs.DefaultTraceCap + 10
	for i := 0; i < total; i++ {
		if code := postJSON(t, ts.URL+"/query",
			json.RawMessage(`{"kind":"connected","u":0,"v":1}`), nil); code != http.StatusOK {
			t.Fatalf("query %d: %d", i, code)
		}
	}
	page := tracesPage(t, ts.URL)
	if len(page.Traces) != obs.DefaultTraceCap {
		t.Fatalf("ring holds %d traces, want capacity %d", len(page.Traces), obs.DefaultTraceCap)
	}
	if page.Seen != int64(total) || page.Captured != int64(total) {
		t.Fatalf("seen=%d captured=%d, want %d/%d", page.Seen, page.Captured, total, total)
	}
}

func tracesPage(t *testing.T, base string) obs.TracesPage {
	t.Helper()
	resp, err := http.Get(base + "/debug/traces")
	if err != nil {
		t.Fatalf("GET /debug/traces: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: status %d", resp.StatusCode)
	}
	var page obs.TracesPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatalf("decode traces: %v", err)
	}
	return page
}

// TestMetricsScrapeDuringChurn hammers GET /metrics while queries, churn
// updates, and graph create/delete cycles run concurrently — the race
// gate for every scrape-time func instrument (they read engine and
// registry state under their own locks). The query mix includes bicc
// kinds and the updates alternate adding and removing one edge, so bicc
// instances retire and fold their cluster-cache counters into the engine
// mid-scrape: every scraped wec_cache_*_total{cache="cluster"} value, and
// Stats().ClusterCache, must never decrease between consecutive reads.
func TestMetricsScrapeDuringChurn(t *testing.T) {
	reg, ts := newMetricsTestServer(t, RegistryConfig{SlowQuery: -1})
	eng, err := reg.Get("default")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		kinds := []string{"connected", "bridge", "biconnected"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf(`{"kind":%q,"u":%d,"v":%d}`, kinds[i%len(kinds)], i%64, (i*7+1)%64)
			postJSON(t, ts.URL+"/query", json.RawMessage(q), nil)
			if i%3 == 0 {
				// Removing the extra edge again can split a block, so bicc
				// defers and the next bicc query rebuilds it: the replaced
				// instance retires.
				op := "add"
				if (i/3)%2 == 1 {
					op = "remove"
				}
				postJSON(t, ts.URL+"/update", json.RawMessage(fmt.Sprintf(`{%q:[[0,33]],"wait":true}`, op)), nil)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := fmt.Sprintf("churn%d", i%2)
			if _, err := reg.Create(GraphSpec{Name: name, N: 32, Deg: 3, Wait: true}); err != nil {
				continue
			}
			reg.Delete(name)
		}
	}()

	// Stats readers race the publishes far more often than HTTP scrapes
	// can, so they get a goroutine of their own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last CacheStats
		for {
			select {
			case <-stop:
				return
			default:
			}
			cc := eng.Stats().ClusterCache
			if cc.Hits < last.Hits || cc.Misses < last.Misses || cc.Evictions < last.Evictions {
				t.Errorf("Stats().ClusterCache went backwards: %+v -> %+v", last, cc)
				return
			}
			last = cc
		}
	}()

	last := map[string]float64{}
	deadline := time.Now().Add(1 * time.Second)
scrapes:
	for time.Now().Before(deadline) {
		exp := scrape(t, ts.URL)
		if !exp.HasFamily("wec_query_duration_seconds") {
			t.Error("scrape lost wec_query_duration_seconds mid-churn")
			break
		}
		for _, smp := range exp.Samples {
			if smp.Labels["graph"] != "default" || smp.Labels["cache"] != cacheLayerCluster {
				continue
			}
			if smp.Value < last[smp.Name] {
				t.Errorf("%s{cache=%q} went backwards: %v -> %v", smp.Name, cacheLayerCluster, last[smp.Name], smp.Value)
				break scrapes
			}
			last[smp.Name] = smp.Value
		}
	}
	close(stop)
	wg.Wait()
	if st := eng.Stats(); st.LazyRebuilds == 0 || last["wec_cache_misses_total"] == 0 {
		t.Errorf("churn never retired a bicc instance: lazy rebuilds %d, cluster misses %v", st.LazyRebuilds, last["wec_cache_misses_total"])
	}
}
