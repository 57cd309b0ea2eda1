package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Read workloads: closed-loop callers cycle through a pregenerated stream
// of batches on one snapshot. The first execution of each batch (the
// warm-up pass) records its answers; every later execution must return
// the same answers, and the recorded ones are checked against the
// reference after the run.

// caller answers stream batch b into out and returns how many answers were
// errors.
type caller func(b int, out []int32) (errs int, err error)

// readState is shared by the warm-up pass and the timed loops.
type readState struct {
	s      spec
	call   caller
	first  [][]int32 // answers of each batch's first execution
	failed atomic.Int64
	tried  atomic.Int64
}

// warm runs every batch of the stream once, each caller its own share.
func (rs *readState) warm() error {
	errc := make(chan error, rs.s.callers)
	var wg sync.WaitGroup
	for c := 0; c < rs.s.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for b := c; b < rs.s.batches; b += rs.s.callers {
				out := make([]int32, rs.s.batch)
				errs, err := rs.call(b, out)
				if err != nil {
					errc <- err
					return
				}
				rs.tried.Add(int64(rs.s.batch))
				rs.failed.Add(int64(errs))
				rs.first[b] = out
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	return <-errc
}

// minBatches is the fewest batches a timed loop runs even when its time is
// up: five slices of readSlice batches.
const minBatches = 5 * readSlice

// readSlice is the read loops' slice size (see perSlice).
const readSlice = 100

// loop runs the timed closed loop for d and at least minBatches batches.
func (rs *readState) loop(d time.Duration) (loopStats, error) {
	samples := make([][]batchSample, rs.s.callers)
	errc := make(chan error, rs.s.callers)
	var wg sync.WaitGroup
	var done atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	more := func() bool { return time.Now().Before(deadline) || done.Load() < minBatches }
	for c := 0; c < rs.s.callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]int32, rs.s.batch)
			for b := c; more(); b = (b + rs.s.callers) % rs.s.batches {
				t0 := time.Now()
				errs, err := rs.call(b, out)
				if err != nil {
					errc <- err
					return
				}
				now := time.Now()
				samples[c] = append(samples[c], batchSample{end: now.Sub(start), ms: ms(now.Sub(t0))})
				done.Add(1)
				rs.failed.Add(int64(errs + mismatches(out, rs.first[b])))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errc)
	if err := <-errc; err != nil {
		return loopStats{}, err
	}
	var all []batchSample
	for _, c := range samples {
		all = append(all, c...)
	}
	ls := perSlice(all, readSlice, rs.s.batch, rs.s.tailPct)
	ls.queries, ls.elapsed = int64(len(all)*rs.s.batch), elapsed
	rs.tried.Add(ls.queries)
	return ls, nil
}

// verify checks the recorded answers against the reference and returns the
// number of wrong ones.
func (rs *readState) verify(ref *reference, queries [][]serve.Query) int {
	bad := 0
	for b, qs := range queries {
		bad += ref.check(qs, rs.first[b])
	}
	return bad
}

// engineCaller answers batches in process with Engine.Do.
func engineCaller(eng *serve.Engine, queries [][]serve.Query, tr *atomic.Pointer[tracer]) caller {
	return func(b int, out []int32) (int, error) {
		t := tr.Load()
		sp := t.open("serve.engine.do", 0, 0)
		res := eng.Do(queries[b])
		t.finish(sp)
		return encode(res, out), nil
	}
}

// reqIDHeader carries the client span id to the server-side wrapper, which
// links its handler span to it.
const reqIDHeader = "X-Bench-Request-Id"

// httpBench is a loopback /batch server plus its keep-alive clients.
type httpBench struct {
	srv       *http.Server
	url       string
	client    *http.Client
	bodies    [][]byte
	respBytes atomic.Int64
	tracer    *atomic.Pointer[tracer]
	serveDone chan struct{}
}

// handlerSpans wraps the registry server: when a tracer is installed, it
// times each ServeHTTP call as a serve.http.handler span.
type handlerSpans struct {
	next http.Handler
	hb   *httpBench
}

func (h handlerSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.hb.tracer.Load()
	if t == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	id, _ := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
	t.record("serve.http.handler", id, id, start, time.Now())
}

func startHTTP(reg *serve.Registry, queries [][]serve.Query, callers int, tr *atomic.Pointer[tracer]) (*httpBench, error) {
	hb := &httpBench{tracer: tr, serveDone: make(chan struct{})}
	for _, qs := range queries {
		body, err := json.Marshal(serve.BatchRequest{Queries: qs})
		if err != nil {
			return nil, err
		}
		hb.bodies = append(hb.bodies, body)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hb.url = "http://" + ln.Addr().String() + "/batch"
	hb.srv = &http.Server{Handler: handlerSpans{next: serve.NewRegistryServer(reg), hb: hb}}
	go func() {
		defer close(hb.serveDone)
		hb.srv.Serve(ln)
	}()
	hb.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: callers,
		DisableCompression:  true,
	}}
	return hb, nil
}

func (hb *httpBench) stop() {
	hb.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	hb.srv.Shutdown(ctx)
	<-hb.serveDone
}

// caller posts body b and decodes the response, inside a client.batch
// span whose children are the server's handler span and client.decode.
func (hb *httpBench) caller() caller {
	return func(b int, out []int32) (int, error) {
		t := hb.tracer.Load()
		sp := t.open("client.batch", 0, 0)
		req, err := http.NewRequest(http.MethodPost, hb.url, bytes.NewReader(hb.bodies[b]))
		if err != nil {
			return 0, err
		}
		if t != nil {
			req.Header.Set(reqIDHeader, strconv.FormatInt(sp.ID, 10))
		}
		resp, err := hb.client.Do(req)
		if err != nil {
			return 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("POST /batch: %s: %s", resp.Status, body)
		}
		hb.respBytes.Add(int64(len(body)))
		dsp := t.open("client.decode", sp.ID, sp.ID)
		var br serve.BatchResponse
		err = json.Unmarshal(body, &br)
		t.finish(dsp)
		t.finish(sp)
		if err != nil {
			return 0, err
		}
		if len(br.Results) != len(out) {
			return 0, fmt.Errorf("POST /batch: %d results for %d queries", len(br.Results), len(out))
		}
		return encode(br.Results, out), nil
	}
}
