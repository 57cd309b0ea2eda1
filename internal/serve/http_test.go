package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/asym"
	"repro/internal/graph"
)

func newTestServer(t *testing.T, g *graph.Graph) (*Engine, *httptest.Server) {
	t.Helper()
	e := New(g, Config{Omega: 16, Seed: 5})
	ts := httptest.NewServer(NewServer(e))
	t.Cleanup(ts.Close)
	t.Cleanup(e.Close)
	return e, ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestHTTPRoundTripAllEndpoints exercises every endpoint once: /healthz,
// /info, /query for each kind, /batch, and /stats.
func TestHTTPRoundTripAllEndpoints(t *testing.T) {
	g := graph.RandomRegular(200, 3, 47)
	e, ts := newTestServer(t, g)

	var health map[string]bool
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || !health["ok"] {
		t.Fatalf("/healthz: code=%d body=%v", code, health)
	}

	var info Info
	if code := getJSON(t, ts.URL+"/info", &info); code != http.StatusOK {
		t.Fatalf("/info: code=%d", code)
	}
	if info.GraphN != g.N() || info.GraphM != g.M() || len(info.Kinds) != len(Kinds) {
		t.Errorf("/info mismatch: %+v", info)
	}
	if info.BuildCosts["conn"].Writes == 0 || info.BuildCosts["bicc"].Writes == 0 {
		t.Errorf("/info build costs should have nonzero writes: %+v", info.BuildCosts)
	}

	// One /query per kind, checked against a direct oracle call.
	m := asym.NewMeter(e.Omega())
	sym := asym.NewSymTracker(0)
	for i, kind := range Kinds {
		q := Query{Kind: kind, U: int32(i), V: int32(i + 7)}
		var got Result
		if code := postJSON(t, ts.URL+"/query", q, &got); code != http.StatusOK {
			t.Fatalf("/query %s: code=%d", kind, code)
		}
		want := direct(e, m, sym, q)
		if !sameResult(got, want) {
			t.Errorf("/query %s: got %+v want %+v", kind, got, want)
		}
	}

	// A mixed batch.
	qs := mixedQueries(g, 250, 53)
	var br BatchResponse
	if code := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: qs}, &br); code != http.StatusOK {
		t.Fatalf("/batch: code=%d", code)
	}
	if br.Count != len(qs) || len(br.Results) != len(qs) {
		t.Fatalf("/batch: count=%d results=%d want %d", br.Count, len(br.Results), len(qs))
	}
	for i, q := range qs {
		if want := direct(e, m, sym, q); !sameResult(br.Results[i], want) {
			t.Errorf("/batch %d %s: got %+v want %+v", i, describe(q), br.Results[i], want)
		}
	}

	var st Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: code=%d", code)
	}
	if st.TotalQueries != int64(len(Kinds)+len(qs)) {
		t.Errorf("/stats total=%d want %d", st.TotalQueries, len(Kinds)+len(qs))
	}
	for _, k := range Kinds {
		ks, ok := st.Queries[string(k)]
		if !ok || ks.Count == 0 {
			t.Errorf("/stats missing kind %s: %+v", k, ks)
			continue
		}
		if ks.Cost.Reads == 0 || ks.Cost.Writes == 0 || ks.Cost.Work() == 0 {
			t.Errorf("/stats kind %s: want nonzero reads/writes/work, got %+v", k, ks.Cost)
		}
	}
}

// TestHTTPBatch10kEquivalence is the acceptance check: >= 10k mixed queries
// served through the HTTP API must return answers identical to direct
// single-threaded oracle calls.
func TestHTTPBatch10kEquivalence(t *testing.T) {
	g := graph.GNM(500, 700, 59, false) // disconnected: exercises implicit centers
	e, ts := newTestServer(t, g)

	const nq = 10_000
	qs := mixedQueries(g, nq, 61)
	var br BatchResponse
	if code := postJSON(t, ts.URL+"/batch", BatchRequest{Queries: qs}, &br); code != http.StatusOK {
		t.Fatalf("/batch: code=%d", code)
	}
	if len(br.Results) != nq {
		t.Fatalf("/batch returned %d results, want %d", len(br.Results), nq)
	}
	m := asym.NewMeter(e.Omega())
	sym := asym.NewSymTracker(0)
	mismatches := 0
	for i, q := range qs {
		if want := direct(e, m, sym, q); !sameResult(br.Results[i], want) {
			if mismatches < 5 {
				t.Errorf("query %d %s: got %+v want %+v", i, describe(q), br.Results[i], want)
			}
			mismatches++
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d mismatches", mismatches, nq)
	}

	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	for _, k := range Kinds {
		c := st.Queries[string(k)].Cost
		if c.Reads == 0 || c.Writes == 0 || c.Work() == 0 {
			t.Errorf("kind %s: want nonzero reads/writes/work after 10k batch, got %+v", k, c)
		}
	}
}

// TestHTTPErrors covers the failure surfaces: wrong methods, bad JSON,
// malformed queries, oversized batches.
func TestHTTPErrors(t *testing.T) {
	g := graph.Grid2D(5, 5)
	_, ts := newTestServer(t, g)

	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"query GET", func() (*http.Response, error) { return http.Get(ts.URL + "/query") }, http.StatusMethodNotAllowed},
		{"batch GET", func() (*http.Response, error) { return http.Get(ts.URL + "/batch") }, http.StatusMethodNotAllowed},
		{"stats POST", func() (*http.Response, error) {
			return http.Post(ts.URL+"/stats", "application/json", bytes.NewReader(nil))
		}, http.StatusMethodNotAllowed},
		{"bad query JSON", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json", bytes.NewReader([]byte("{")))
		}, http.StatusBadRequest},
		{"bad batch JSON", func() (*http.Response, error) {
			return http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte("[]")))
		}, http.StatusBadRequest},
		{"unknown kind", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json",
				bytes.NewReader([]byte(`{"kind":"mystery","u":0}`)))
		}, http.StatusBadRequest},
		{"vertex out of range", func() (*http.Response, error) {
			return http.Post(ts.URL+"/query", "application/json",
				bytes.NewReader([]byte(fmt.Sprintf(`{"kind":"component","u":%d}`, g.N()))))
		}, http.StatusBadRequest},
		{"oversized query body", func() (*http.Response, error) {
			// Valid JSON padded past maxQueryBytes: must be rejected by the
			// byte limit, not decoded.
			body := append([]byte(`{"kind":"component","u":0,"pad":"`),
				bytes.Repeat([]byte("x"), maxQueryBytes+1)...)
			body = append(body, []byte(`"}`)...)
			return http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		}, http.StatusRequestEntityTooLarge},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: code=%d want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
