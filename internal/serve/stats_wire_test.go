package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
)

// wireScenario drives one engine through every path /stats reports on and
// returns its server at rest: one query of every kind, a repeat (a result
// table hit) and a malformed query (a counted error); one published update
// that adds and removes an edge, so rebuilds[] and both edge counters are
// non-empty and the bicc rebuild is deferred; then one bicc-family query,
// which forces the deferred bicc build; and one /batch, which waits for
// pool slots.
func wireScenario(t *testing.T) *httptest.Server {
	t.Helper()
	g := graph.RandomRegular(200, 3, 47)
	_, ts := newTestServer(t, g)
	query := func(q Query, want int) {
		t.Helper()
		if code := postJSON(t, ts.URL+"/query", q, nil); code != want {
			t.Fatalf("/query %+v: code=%d want %d", q, code, want)
		}
	}
	for i, kind := range Kinds {
		query(Query{Kind: kind, U: int32(i), V: int32(i + 7)}, http.StatusOK)
	}
	query(Query{Kind: Kinds[0], U: 0, V: 7}, http.StatusOK)
	query(Query{Kind: KindComponent, U: int32(g.N())}, http.StatusBadRequest)

	add := [2]int32{0, 0}
	for v := int32(1); ; v++ {
		if g.EdgeMultiplicity(0, v) == 0 {
			add[1] = v
			break
		}
	}
	var ur UpdateResponse
	up := UpdateRequest{Add: [][2]int32{add}, Remove: [][2]int32{g.Edges()[g.M()-1]}, Wait: true}
	if code := postJSON(t, ts.URL+"/update", up, &ur); code != http.StatusOK || !ur.Applied {
		t.Fatalf("/update: code=%d resp=%+v", code, ur)
	}
	query(Query{Kind: KindBridge, U: add[0], V: add[1]}, http.StatusOK)
	if code := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: []Query{{Kind: KindConnected, U: 1, V: 8}}}, nil); code != http.StatusOK {
		t.Fatalf("/batch: code=%d", code)
	}
	return ts
}

// schemaLines flattens a JSON document into sorted, de-duplicated
// "path: kind" lines. Array elements share the path "name[]", and a number
// is "int" or "float" by its literal, so an integer nanosecond field cannot
// turn into a float millisecond one unnoticed.
func schemaLines(t *testing.T, doc []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var root map[string]any
	if err := dec.Decode(&root); err != nil {
		t.Fatalf("decode: %v", err)
	}
	set := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		kind := "null"
		switch x := v.(type) {
		case map[string]any:
			kind = "object"
			for k, c := range x {
				walk(path+"."+k, c)
			}
		case []any:
			kind = "array"
			for _, c := range x {
				walk(path+"[]", c)
			}
		case json.Number:
			kind = "int"
			if strings.ContainsAny(string(x), ".eE") {
				kind = "float"
			}
		case string:
			kind = "string"
		case bool:
			kind = "bool"
		}
		set[path[1:]+": "+kind] = true
	}
	for k, v := range root {
		walk("."+k, v)
	}
	lines := make([]string, 0, len(set))
	for l := range set {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	return lines
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code=%d err=%v", url, resp.StatusCode, err)
	}
	return body
}

// TestStatsWireSchema pins the /stats and /info wire schema: every field
// path and its JSON kind. /info's build object is checked only for
// presence, because its VCS fields depend on how the binary was built. To
// change the schema deliberately, update docs/observability.md and
// regenerate the golden with UPDATE_GOLDEN=1 go test ./internal/serve.
func TestStatsWireSchema(t *testing.T) {
	ts := wireScenario(t)
	stats := schemaLines(t, getBody(t, ts.URL+"/stats"))
	var info []string
	for _, l := range schemaLines(t, getBody(t, ts.URL+"/info")) {
		if !strings.HasPrefix(l, "build.") {
			info = append(info, l)
		}
	}
	got := "# GET /stats\n" + strings.Join(stats, "\n") + "\n# GET /info\n" + strings.Join(info, "\n") + "\n"

	golden := filepath.Join("testdata", "stats_schema.golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got != string(want) {
		t.Errorf("/stats or /info schema drifted from %s.\nIf intentional: update docs/observability.md, regenerate with UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}

	// Invariants a regenerated golden must still satisfy: every cost
	// object carries its work, durations are integer nanoseconds, and no
	// field only copies a map entry.
	all := append(stats, info...)
	for _, l := range all {
		path, kind, _ := strings.Cut(l, ": ")
		if base, ok := strings.CutSuffix(path, ".reads"); ok && !slices.Contains(all, base+".work: int") {
			t.Errorf("cost object %s has no work", base)
		}
		leaf := path[strings.LastIndexAny(path, ".]")+1:]
		if strings.HasSuffix(leaf, "_ns") && kind != "int" {
			t.Errorf("%s is %s, want int nanoseconds", path, kind)
		}
		if strings.HasSuffix(leaf, "_ms") || slices.Contains([]string{"build_conn", "build_bicc", "conn_cost", "bicc_cost"}, leaf) {
			t.Errorf("retired field %s is back on the wire", path)
		}
	}
	for _, p := range []string{"admission.queue_wait_ns", "pool.queue_wait_ns", "rebuilds[].duration_ns"} {
		if !slices.Contains(stats, p+": int") {
			t.Errorf("/stats lacks %s", p)
		}
	}
	if !slices.Contains(info, "build: object") {
		t.Error("/info lacks the build object")
	}
}

// TestStatsMetricsAgree checks that the two telemetry surfaces report the
// same counters: after the wire scenario, at rest, every /metrics series
// below equals its /stats counterpart for the graph.
func TestStatsMetricsAgree(t *testing.T) {
	ts := wireScenario(t)
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	exp := scrape(t, ts.URL)

	// The scenario must make the comparison non-vacuous.
	if st.LazyRebuilds != 1 || st.RebuildsAvoided == 0 || st.EdgesAdded != 1 || st.EdgesRemoved != 1 ||
		st.Epoch != 1 || st.ResultCache.Hits == 0 || st.ClusterCache.Misses == 0 ||
		st.Queries[string(KindComponent)].Errors != 1 || st.Admission.QueueWait == 0 {
		t.Fatalf("scenario did not exercise every counter: %+v", st)
	}

	sample := func(name string, labels ...string) (float64, bool) {
		labels = append(labels, "graph", "default")
		for _, s := range exp.Samples {
			if s.Name != name || len(s.Labels) != len(labels)/2 {
				continue
			}
			match := true
			for i := 0; i < len(labels); i += 2 {
				match = match && s.Labels[labels[i]] == labels[i+1]
			}
			if match {
				return s.Value, true
			}
		}
		return 0, false
	}
	agree := func(name string, want int64, labels ...string) {
		t.Helper()
		v, ok := sample(name, labels...)
		if !ok {
			t.Errorf("%s%v missing from /metrics", name, labels)
		} else if v != float64(want) {
			t.Errorf("%s%v = %v, /stats says %d", name, labels, v, want)
		}
	}
	for kind, ks := range st.Queries {
		agree("wec_queries_total", ks.Count, "kind", kind)
		agree("wec_query_errors_total", ks.Errors, "kind", kind)
	}
	for layer, c := range map[string]CacheStats{cacheLayerResult: st.ResultCache, cacheLayerCluster: st.ClusterCache} {
		agree("wec_cache_hits_total", c.Hits, "cache", layer)
		agree("wec_cache_misses_total", c.Misses, "cache", layer)
		agree("wec_cache_evictions_total", c.Evictions, "cache", layer)
	}
	agree("wec_admission_rejected_total", st.Admission.Rejected)
	agree("wec_lazy_rebuilds_total", st.LazyRebuilds)
	agree("wec_rebuilds_avoided_total", st.RebuildsAvoided)
	agree("wec_edges_added_total", st.EdgesAdded)
	agree("wec_edges_removed_total", st.EdgesRemoved)
	agree("wec_published_epoch", st.Epoch)
	for name, ep := range st.OracleEpochs {
		agree("wec_oracle_epoch", ep, "oracle", name)
	}
	// admission.queue_wait_ns is the queue-wait histogram's sum of
	// seconds, rounded to the nanosecond.
	if sum, ok := sample("wec_pool_queue_wait_seconds_sum"); !ok {
		t.Errorf("wec_pool_queue_wait_seconds_sum missing from /metrics")
	} else if got := time.Duration(math.Round(sum * 1e9)); got != st.Admission.QueueWait {
		t.Errorf("wec_pool_queue_wait_seconds_sum = %v (%v), /stats admission.queue_wait_ns says %v", sum, got, st.Admission.QueueWait)
	}
}
