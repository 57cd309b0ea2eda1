package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/graph"
)

// httpConnBatch returns one batch shaped like perfbench's http-conn
// requests: 256 queries, connected and component mixed 50/50, endpoints
// uniform in [0, 65536). It also returns answers of the matching shape (a
// bool per connected, a label per component) and the encoding/json request
// body.
func httpConnBatch(seed uint64) ([]Query, []Result, []byte) {
	rng := rand.New(rand.NewPCG(seed, 0))
	qs := make([]Query, 256)
	rs := make([]Result, len(qs))
	labels := make([]int32, len(qs))
	for i := range qs {
		if rng.IntN(2) == 0 {
			qs[i] = Query{Kind: KindConnected, U: rng.Int32N(65536), V: rng.Int32N(65536)}
			rs[i].Bool = &boolVals[rng.IntN(2)]
		} else {
			qs[i] = Query{Kind: KindComponent, U: rng.Int32N(65536)}
			labels[i] = rng.Int32N(65536)
			rs[i].Label = &labels[i]
		}
	}
	body, err := json.Marshal(BatchRequest{Queries: qs})
	if err != nil {
		panic(err)
	}
	return qs, rs, body
}

var boolVals = [2]bool{false, true}

// batchQuirkBodies are the request bodies whose encoding/json semantics
// the /batch codec must keep; they seed FuzzBatchDecode. UESC stands for a
// backslash-u JSON escape.
var batchQuirkBodies = []string{
	// Top-level value.
	``, `   `, `null`, ` null `, `nullx`, `nul`, `[]`, `""`, `1`, `true`, `{}`, `{`, "\xef\xbb\xbf{}",
	`{"queries":[{"kind":"component","u":1}]} trailing {"queries":`,
	`{"queries":[{"kind":"component","u":1}]`,
	// Keys: EqualFold on the unescaped key.
	`{"QUERIES":[{"KIND":"component","U":1,"V":2}]}`,
	`{"ſtaleness":"bounded","queries":[{"kind":"connected","u":1,"v":2,"ſtaleness":"strict"}]}`,
	`{"UESC0071ueries":[{"UESC006bind":"component","u":3}]}`,
	`{"queries":[{"UESC212aind":"component","u":3}]}`,
	`{"queries":[{"kindUESC0000":"component","u":3}]}`,
	// Unknown fields: skipped, syntax still checked.
	`{"x":{"a":[1,2.5e-3,-0.5E+7,true,false,null,"s\n\"UESC00e9"]},"queries":[{"y":[{}],"kind":"component"}]}`,
	`{"x":[1,]}`, `{"x":tru}`, `{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":"\q"}`, `{"x":"UESC12g4"}`, `{"x" 1}`, `{"x":1,}`,
	"{\"x\":\"a\x01\"}",
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"queries":[{"x":` + strings.Repeat(`{"a":`, 9997) + `1` + strings.Repeat("}", 9997) + `}]}`,
	`{"queries":[{"x":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
	// Duplicate keys: the last wins, decoding into existing elements.
	`{"queries":[{"kind":"connected","u":1,"v":2}],"queries":[{"u":5}]}`,
	`{"queries":[{"u":1},{"u":2},{"u":3}],"queries":[{"v":9}],"queries":[{},{},{},{}]}`,
	`{"queries":[{"u":1}],"queries":[],"queries":[{}]}`,
	`{"queries":[{"u":1}],"queries":null,"queries":[{}]}`,
	`{"staleness":"bounded","staleness":"strict","staleness":null}`,
	// Nulls.
	`{"queries":null}`, `{"queries":[]}`, `{"queries":[null,{"u":1},null]}`,
	`{"queries":[{"kind":null,"u":null,"v":null,"staleness":null}]}`,
	`{"queries":[{"u":1}],"queries":[null,null]}`,
	// Integers.
	`{"queries":[{"u":1e2}]}`, `{"queries":[{"u":3.0}]}`, `{"queries":[{"u":"3"}]}`,
	`{"queries":[{"u":2147483647,"v":-2147483648}]}`,
	`{"queries":[{"u":2147483648}]}`, `{"queries":[{"u":-2147483649}]}`,
	`{"queries":[{"u":-0}]}`, `{"queries":[{"u":01}]}`, `{"queries":[{"u":-}]}`,
	`{"queries":[{"u":99999999999999999999999}]}`, `{"queries":[{"u":true}]}`,
	// Strings.
	`{"queries":[{"kind":"UESCd800"}]}`, `{"queries":[{"kind":"UESCdc00UESCd800x"}]}`,
	`{"queries":[{"kind":"UESCd83dUESCde00"}]}`, `{"queries":[{"kind":"UESCd800UESC0041"}]}`,
	"{\"queries\":[{\"kind\":\"\xff\xfe\xed\xa0\x80\"}]}",
	`{"queries":[{"kind":"connUESC0065cted","staleness":"bounUESC0064ed"}]}`,
	`{"queries":[{"kind":"mystery","staleness":"eventually"}],"staleness":"never"}`,
	`{"queries":[{"kind":"\"\\\/\b\f\n\r\t"}]}`,
	// Wrong types.
	`{"queries":{}}`, `{"queries":"x"}`, `{"queries":[1]}`, `{"queries":[[]]}`, `{"queries":[true]}`,
	`{"queries":[{"kind":1}]}`, `{"queries":[{"kind":{}}]}`, `{"queries":[{"kind":[]}]}`, `{"staleness":true}`,
	// Whitespace.
	" \t\r\n{ \"queries\" : [ { \"kind\" : \"component\" , \"u\" : 1 } ] , \"staleness\" : \"bounded\" } ",
}

func batchSeed(s string) []byte {
	return []byte(strings.ReplaceAll(s, "UESC", `\u`))
}

// sameBatchRequest compares decoded requests, counting nil and empty
// Queries as equal.
func sameBatchRequest(a, b BatchRequest) bool {
	if a.Staleness != b.Staleness || len(a.Queries) != len(b.Queries) {
		return false
	}
	for i := range a.Queries {
		if a.Queries[i] != b.Queries[i] {
			return false
		}
	}
	return true
}

// FuzzBatchDecode holds the /batch codec to encoding/json: both accept and
// reject the same bodies and decode equal requests. Each body is decoded
// twice, into a fresh request and into a reused slice full of stale
// queries (as the handler's pooled slice is), and the body is overwritten
// afterwards to prove no decoded string aliases it.
func FuzzBatchDecode(f *testing.F) {
	for _, s := range batchQuirkBodies {
		f.Add(batchSeed(s))
	}
	_, _, body := httpConnBatch(1)
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		var want BatchRequest
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		stale := make([]Query, 8)
		for i := range stale {
			stale[i] = Query{Kind: "stale", U: 7, V: 7, Staleness: "stale"}
		}
		for _, start := range [][]Query{nil, stale[:0]} {
			data := bytes.Clone(body)
			got := BatchRequest{Queries: start}
			gotErr := decodeBatchRequest(data, &got)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("body %q: codec err %v, encoding/json err %v", body, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			for i := range data {
				data[i] = 'x'
			}
			if !sameBatchRequest(got, want) {
				t.Fatalf("body %q (start cap %d):\ncodec         %+v\nencoding/json %+v", body, cap(start), got, want)
			}
		}
	})
}

// TestBatchEncodeMatchesEncodingJSON holds appendBatchResponse to the exact
// bytes json.Encoder writes, on random results mixing every field and on
// error strings full of characters the encoder escapes.
func TestBatchEncodeMatchesEncodingJSON(t *testing.T) {
	pieces := []string{"a", "<", ">", "&", `"`, `\`, "\n", "\r", "\t", "\b", "\f", "\x01", "\x1f", "\x7f",
		"\xff", "\xe2\x80", "\xe2\x80\xa8", "\xe2\x80\xa9", "é", "ſ", "\xf0\x9f\x98\x80", "unknown query kind", " "}
	rng := rand.New(rand.NewPCG(3, 4))
	randResult := func() Result {
		var r Result
		if rng.IntN(2) == 0 {
			r.Bool = &boolVals[rng.IntN(2)]
		}
		if rng.IntN(2) == 0 {
			l := int32(rng.Uint32())
			r.Label = &l
		}
		if rng.IntN(3) == 0 {
			var sb strings.Builder
			for n := rng.IntN(8); n > 0; n-- {
				sb.WriteString(pieces[rng.IntN(len(pieces))])
			}
			r.Err = sb.String()
		}
		if rng.IntN(3) == 0 {
			r.Epoch = int64(rng.Uint64())
		}
		return r
	}
	batches := [][]Result{nil, {}, {{}}}
	for i := 0; i < 2000; i++ {
		rs := make([]Result, rng.IntN(6))
		for j := range rs {
			rs[j] = randResult()
		}
		batches = append(batches, rs)
	}
	_, rs, _ := httpConnBatch(1)
	batches = append(batches, rs)
	var want bytes.Buffer
	for _, rs := range batches {
		want.Reset()
		if err := json.NewEncoder(&want).Encode(BatchResponse{Results: rs, Count: len(rs)}); err != nil {
			t.Fatal(err)
		}
		if got := appendBatchResponse([]byte("prefix"), rs); string(got[len("prefix"):]) != want.String() {
			t.Fatalf("results %+v:\ngot  %q\nwant %q", rs, got[len("prefix"):], want.Bytes())
		}
	}
}

// TestBatchStatusCodes pins the /batch status for the codec's quirk
// bodies: encoding/json's accepts are 200, its rejects 400, and any body
// over maxBatchBytes is 413.
func TestBatchStatusCodes(t *testing.T) {
	g := graph.Grid2D(5, 5)
	e, ts := newTestServer(t, g)
	for _, tc := range []struct {
		name string
		body string
		want int
		// queries are the queries a 200 answers, in order.
		queries []Query
	}{
		{"null", `null`, http.StatusOK, nil},
		{"trailing bytes", `{"queries":[{"kind":"component","u":3}]} {"queries":[`, http.StatusOK,
			[]Query{{Kind: KindComponent, U: 3}}},
		{"case-variant keys", `{"QUERIES":[{"Kind":"connected","U":1,"V":7}],"ſtaleness":"bounded"}`, http.StatusOK,
			[]Query{{Kind: KindConnected, U: 1, V: 7, Staleness: StalenessBounded}}},
		{"escaped key", `{"UESC0071ueries":[{"kind":"component","u":4}]}`, http.StatusOK,
			[]Query{{Kind: KindComponent, U: 4}}},
		{"duplicate keys", `{"queries":[{"kind":"connected","u":1,"v":2}],"queries":[{"u":5}]}`, http.StatusOK,
			[]Query{{Kind: KindConnected, U: 5, V: 2}}},
		{"array", `[]`, http.StatusBadRequest, nil},
		{"empty body", ``, http.StatusBadRequest, nil},
		{"exponent integer", `{"queries":[{"kind":"component","u":1e2}]}`, http.StatusBadRequest, nil},
		{"quoted integer", `{"queries":[{"kind":"component","u":"3"}]}`, http.StatusBadRequest, nil},
		{"int32 overflow", `{"queries":[{"kind":"component","u":2147483648}]}`, http.StatusBadRequest, nil},
		{"truncated", `{"queries":[{"kind":"component","u":1}`, http.StatusBadRequest, nil},
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(batchSeed(tc.body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: code=%d want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
			continue
		}
		if tc.want != http.StatusOK {
			continue
		}
		var br BatchResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatalf("%s: %v in %q", tc.name, err, body)
		}
		if br.Results == nil || br.Count != len(tc.queries) || len(br.Results) != len(tc.queries) {
			t.Fatalf("%s: got %s, want %d results", tc.name, body, len(tc.queries))
		}
		for i, q := range tc.queries {
			if want := e.Query(q); !sameResult(br.Results[i], want) {
				t.Errorf("%s: result %d = %+v, want %+v for %+v", tc.name, i, br.Results[i], want, q)
			}
		}
	}

	// A body over the limit is a 413 even though a complete value comes
	// first. The handler is called directly: the body is generated as it
	// is read and the declared length rejects it before any of it is.
	body := io.MultiReader(strings.NewReader(`{"queries":[]}`), neverEnding(' '))
	req := httptest.NewRequest(http.MethodPost, "/batch", io.LimitReader(body, maxBatchBytes+1))
	req.ContentLength = maxBatchBytes + 1
	rec := httptest.NewRecorder()
	NewServer(e).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-limit body: code=%d want %d (%s)", rec.Code, http.StatusRequestEntityTooLarge, rec.Body)
	}
}

// neverEnding is an endless reader of one byte.
type neverEnding byte

func (b neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// BenchmarkBatchDecode measures the /batch request decode on the http-conn
// body shape (256 queries), reusing the decoded slice as the handler does.
func BenchmarkBatchDecode(b *testing.B) {
	_, _, body := httpConnBatch(1)
	var req BatchRequest
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		req = BatchRequest{Queries: req.Queries[:0]}
		if err := decodeBatchRequest(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchEncode measures the /batch response encode of 256
// http-conn answers into a reused buffer.
func BenchmarkBatchEncode(b *testing.B) {
	_, rs, _ := httpConnBatch(1)
	buf := appendBatchResponse(nil, rs)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf = appendBatchResponse(buf[:0], rs)
	}
}
