package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// memPersist is an in-memory GraphPersister that records every call in
// order, optionally failing LogUpdate. If published is non-nil (capacity
// 1), every EpochPublished signals it; waitCommits blocks on it.
type memPersist struct {
	mu        sync.Mutex
	updates   []int64 // seqs logged
	commits   [][2]int64
	snapshots [][2]int64
	aborts    [][2]int64
	staged    func() int // observed staging depth at LogUpdate time
	depths    []int
	forests   []int // forest sizes seen by EpochPublished/SaveSnapshot
	depths2   []int // chain depths seen by EpochPublished/SaveSnapshot
	failLog   error
	published chan struct{}
}

func (p *memPersist) LogUpdate(seq int64, add, remove [][2]int32) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failLog != nil {
		return p.failLog
	}
	p.updates = append(p.updates, seq)
	if p.staged != nil {
		p.depths = append(p.depths, p.staged())
	}
	return nil
}

func (p *memPersist) EpochPublished(epoch, seq int64, g *graph.Graph, dyn func() (map[int32]int32, [][2]int32, int)) {
	_, forest, chainDepth := dyn()
	p.mu.Lock()
	p.commits = append(p.commits, [2]int64{epoch, seq})
	p.forests = append(p.forests, len(forest))
	p.depths2 = append(p.depths2, chainDepth)
	p.mu.Unlock()
	select {
	case p.published <- struct{}{}:
	default: // a signal is already pending; waitCommits re-reads commits
	}
}

// waitCommits blocks until at least n EpochPublished calls have been
// recorded. Update(wait=true) returns once its batch is published; the
// rebuilder commits it to the persister afterwards, outside the lock.
func (p *memPersist) waitCommits(t *testing.T, n int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		p.mu.Lock()
		c := len(p.commits)
		p.mu.Unlock()
		if c >= n {
			return
		}
		select {
		case <-p.published:
		case <-deadline:
			t.Fatalf("%d EpochPublished calls after 10s, want %d", c, n)
		}
	}
}

func (p *memPersist) SaveSnapshot(epoch, seq int64, g *graph.Graph, remap map[int32]int32, forest [][2]int32, chainDepth int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.snapshots = append(p.snapshots, [2]int64{epoch, seq})
	p.forests = append(p.forests, len(forest))
	p.depths2 = append(p.depths2, chainDepth)
	return nil
}

func (p *memPersist) LogAbort(fromSeq, toSeq int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.aborts = append(p.aborts, [2]int64{fromSeq, toSeq})
	return nil
}

func (p *memPersist) snap() memPersist {
	p.mu.Lock()
	defer p.mu.Unlock()
	return memPersist{updates: append([]int64(nil), p.updates...),
		commits:   append([][2]int64(nil), p.commits...),
		snapshots: append([][2]int64(nil), p.snapshots...),
		aborts:    append([][2]int64(nil), p.aborts...),
		depths:    append([]int(nil), p.depths...),
		forests:   append([]int(nil), p.forests...),
		depths2:   append([]int(nil), p.depths2...)}
}

// TestEngineWALBeforeStage: every accepted batch reaches the log with the
// right sequence number before it is staged, publishes commit the right
// watermarks, and a recovered-style engine resumes numbering after
// InitialSeq.
func TestEngineWALBeforeStage(t *testing.T) {
	g := graph.RandomRegular(128, 3, 1)
	p := &memPersist{published: make(chan struct{}, 1)}
	var e *Engine
	p.staged = func() int {
		// Called inside LogUpdate, which the engine invokes while holding
		// its update lock with the batch NOT yet staged: the pending delta
		// must not contain it.
		return len(e.pending)
	}
	e = New(g, Config{Omega: 8, Seed: 3, Persist: p, InitialEpoch: 5, InitialSeq: 40})
	defer e.Close()

	if e.Epoch() != 5 || e.LastSeq() != 40 {
		t.Fatalf("initial watermark epoch=%d seq=%d, want 5/40", e.Epoch(), e.LastSeq())
	}

	st, err := e.Update(Update{Add: [][2]int32{{0, 9}}}, true)
	if err != nil {
		t.Fatalf("update: %v", err)
	}
	if st.Seq != 41 || !st.Applied || st.Epoch != 6 {
		t.Fatalf("update status %+v, want seq=41 applied epoch=6", st)
	}
	if _, err := e.Update(Update{Remove: [][2]int32{{0, 9}}}, true); err != nil {
		t.Fatalf("update 2: %v", err)
	}

	p.waitCommits(t, 2)
	got := p.snap()
	if len(got.updates) != 2 || got.updates[0] != 41 || got.updates[1] != 42 {
		t.Fatalf("logged seqs %v, want [41 42]", got.updates)
	}
	// With wait=true the previous batch drains before the next accept, so
	// the staging depth observed inside LogUpdate must be 0 every time:
	// the batch being logged is NOT yet staged (log-before-stage).
	for i, d := range got.depths {
		if d != 0 {
			t.Fatalf("LogUpdate %d observed staging depth %d, want 0 (batch staged before logging?)", i, d)
		}
	}
	// Each wait=true batch forces its own publish: commits are (6,41),(7,42).
	if len(got.commits) != 2 || got.commits[0] != [2]int64{6, 41} || got.commits[1] != [2]int64{7, 42} {
		t.Fatalf("commits %v, want [[6 41] [7 42]]", got.commits)
	}
	// Every publish hands the store the conn dynamic state: the maintained
	// spanning forest (127 edges of the connected 128-vertex graph) and
	// the growing patch-chain depth.
	if len(got.forests) != 2 || got.forests[0] != 127 || got.forests[1] != 127 {
		t.Fatalf("published forest sizes %v, want [127 127]", got.forests)
	}
	if len(got.depths2) != 2 || got.depths2[0] != 1 || got.depths2[1] != 2 {
		t.Fatalf("published chain depths %v, want [1 2]", got.depths2)
	}
}

// TestEngineLogFailureRejectsUpdate: a failing durable log rejects the
// batch with ErrPersist, stages nothing, and does not burn a sequence
// number.
func TestEngineLogFailureRejectsUpdate(t *testing.T) {
	g := graph.RandomRegular(64, 3, 1)
	p := &memPersist{failLog: errors.New("disk full")}
	e := New(g, Config{Omega: 8, Seed: 3, Persist: p})
	defer e.Close()

	_, err := e.Update(Update{Add: [][2]int32{{1, 2}}}, false)
	if !errors.Is(err, ErrPersist) {
		t.Fatalf("err = %v, want ErrPersist", err)
	}
	if e.LastSeq() != 0 || e.Epoch() != 0 {
		t.Fatalf("failed update advanced state: seq=%d epoch=%d", e.LastSeq(), e.Epoch())
	}
	if st := e.Stats(); st.PendingUpdates != 0 {
		t.Fatalf("failed update staged: pending=%d", st.PendingUpdates)
	}

	// The log recovers; the next accept takes seq 1 (no gap).
	p.mu.Lock()
	p.failLog = nil
	p.mu.Unlock()
	st, err := e.Update(Update{Add: [][2]int32{{1, 2}}}, true)
	if err != nil || st.Seq != 1 {
		t.Fatalf("post-recovery update: %+v, %v", st, err)
	}
}

// TestRebuildFailureTyped: a server-side rebuild failure reaches wait=true
// updaters as ErrRebuildFailed and the HTTP surface as a 500 — while a
// plain bad request stays a 400. This is the ROADMAP wart fixed.
func TestRebuildFailureTyped(t *testing.T) {
	g := graph.RandomRegular(64, 3, 1)
	p := &memPersist{}
	e := New(g, Config{Omega: 8, Seed: 3, Persist: p})
	defer e.Close()
	boom := errors.New("oracle rebuild exploded")
	// The hook pointer is installed before the first Update (which starts
	// the rebuild goroutine), and the toggle is atomic, so the rebuild
	// goroutine never races a hook rewrite.
	var failing atomic.Bool
	failing.Store(true)
	e.testRebuildErr = func(*graph.Graph) error {
		if failing.Load() {
			return boom
		}
		return nil
	}

	_, err := e.Update(Update{Add: [][2]int32{{1, 2}}}, true)
	if !errors.Is(err, ErrRebuildFailed) {
		t.Fatalf("err = %v, want ErrRebuildFailed", err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("failed rebuild published epoch %d", e.Epoch())
	}
	// The dropped batch must be aborted in the durable log, or recovery
	// would replay an update the client was told failed.
	if s := p.snap(); len(s.aborts) != 1 || s.aborts[0] != [2]int64{1, 1} {
		t.Fatalf("abort records %v, want [[1 1]]", s.aborts)
	}

	srv := httptest.NewServer(NewServer(e))
	defer srv.Close()
	post := func(body string) int {
		resp, err := http.Post(srv.URL+"/update", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"add":[[1,3]],"wait":true}`); code != http.StatusInternalServerError {
		t.Fatalf("rebuild failure → %d, want 500", code)
	}
	if code := post(`{"remove":[[1,1]],"wait":true}`); code != http.StatusBadRequest {
		t.Fatalf("absent removal → %d, want 400", code)
	}
	failing.Store(false)
	if code := post(`{"add":[[1,3]],"wait":true}`); code != http.StatusOK {
		t.Fatalf("recovered update → %d, want 200", code)
	}
}

// memRegPersist is an in-memory RegistryPersister.
type memRegPersist struct {
	mu         sync.Mutex
	created    []string
	specs      map[string][]byte
	deleted    []string
	logs       map[string]*memPersist
	failFor    string
	failDelete bool
}

func newMemRegPersist() *memRegPersist {
	return &memRegPersist{specs: map[string][]byte{}, logs: map[string]*memPersist{}}
}

func (p *memRegPersist) CreateGraph(name string, specJSON []byte) (GraphPersister, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if name == p.failFor {
		return nil, fmt.Errorf("store says no")
	}
	p.created = append(p.created, name)
	p.specs[name] = append([]byte(nil), specJSON...)
	l := &memPersist{}
	p.logs[name] = l
	return l, nil
}

func (p *memRegPersist) DeleteGraph(name string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failDelete {
		return fmt.Errorf("manifest on fire")
	}
	p.deleted = append(p.deleted, name)
	return nil
}

// TestRegistryLifecycleDurability: creates record a spec and an initial
// snapshot before ready, deletes are recorded, a failing durable create
// frees the name, and a recovered graph resumes its watermark without
// re-recording creation.
func TestRegistryLifecycleDurability(t *testing.T) {
	p := newMemRegPersist()
	reg := NewRegistry(RegistryConfig{Engine: Config{Omega: 8, Seed: 3}, Persist: p})
	defer reg.Close()

	if _, err := reg.Create(GraphSpec{Name: "a", N: 128, Deg: 3, Wait: true}); err != nil {
		t.Fatalf("create: %v", err)
	}
	p.mu.Lock()
	created := append([]string(nil), p.created...)
	var spec GraphSpec
	if err := json.Unmarshal(p.specs["a"], &spec); err != nil {
		t.Fatalf("stored spec: %v", err)
	}
	al := p.logs["a"]
	p.mu.Unlock()
	if len(created) != 1 || created[0] != "a" || spec.N != 128 {
		t.Fatalf("durable create: %v spec=%+v", created, spec)
	}
	if s := al.snap(); len(s.snapshots) != 1 || s.snapshots[0] != [2]int64{0, 0} {
		t.Fatalf("initial snapshot calls: %+v", s.snapshots)
	}

	// Failing durable create rolls the name back.
	p.failFor = "b"
	if _, err := reg.Create(GraphSpec{Name: "b", N: 64, Deg: 3, Wait: true}); err == nil {
		t.Fatal("create with failing store succeeded")
	}
	if _, ok := reg.Status("b"); ok {
		t.Fatal("failed durable create left the name registered")
	}
	p.failFor = ""

	// Recovered graphs resume their watermark and their log.
	g := graph.RandomRegular(64, 3, 9)
	rl := &memPersist{}
	if _, err := reg.CreateRecovered("rec", g, GraphSpec{Wait: true}, rl, RecoveredState{Epoch: 7, Seq: 30}); err != nil {
		t.Fatalf("recovered create: %v", err)
	}
	waitReady(t, reg, "rec")
	eng, err := reg.Get("rec")
	if err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 7 || eng.LastSeq() != 30 {
		t.Fatalf("recovered engine epoch=%d seq=%d, want 7/30", eng.Epoch(), eng.LastSeq())
	}
	p.mu.Lock()
	recreated := len(p.created)
	p.mu.Unlock()
	if recreated != 1 {
		t.Fatalf("recovery re-recorded creation: %v", p.created)
	}
	if _, err := eng.Update(Update{Add: [][2]int32{{0, 5}}}, true); err != nil {
		t.Fatal(err)
	}
	if s := rl.snap(); len(s.updates) != 1 || s.updates[0] != 31 {
		t.Fatalf("recovered log seqs %v, want [31]", s.updates)
	}

	// A failing durable delete leaves the graph registered — the DELETE
	// is retryable, never a 404 over data that resurrects next boot.
	p.mu.Lock()
	p.failDelete = true
	p.mu.Unlock()
	if err := reg.Delete("rec"); err == nil {
		t.Fatal("delete with failing store succeeded")
	}
	if _, ok := reg.Status("rec"); !ok {
		t.Fatal("failed durable delete unregistered the graph (retry would 404)")
	}
	if _, err := reg.Get("rec"); err != nil {
		t.Fatalf("graph unusable after failed delete: %v", err)
	}
	p.mu.Lock()
	p.failDelete = false
	p.mu.Unlock()

	// Retry succeeds and reaches the store (a non-default graph).
	if err := reg.Delete("rec"); err != nil {
		t.Fatalf("delete retry: %v", err)
	}
	p.mu.Lock()
	deleted := append([]string(nil), p.deleted...)
	p.mu.Unlock()
	if len(deleted) != 1 || deleted[0] != "rec" {
		t.Fatalf("durable deletes %v, want [rec]", deleted)
	}
	if _, ok := reg.Status("rec"); ok {
		t.Fatal("graph still registered after successful delete")
	}
}

// TestRecoveredDefaultClaim: recovered graphs never auto-claim the default
// slot (manifest order must not silently point the un-prefixed endpoints
// at a tenant's graph); the embedder restores the default by name, and
// SetDefault refuses to re-point an occupied slot.
func TestRecoveredDefaultClaim(t *testing.T) {
	reg := NewRegistry(RegistryConfig{Engine: Config{Omega: 8, Seed: 3}})
	defer reg.Close()

	ga := graph.RandomRegular(64, 3, 1)
	gb := graph.RandomRegular(64, 3, 2)
	if _, err := reg.CreateRecovered("tenant", ga, GraphSpec{Wait: true}, nil, RecoveredState{}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, reg, "tenant")
	if d := reg.DefaultName(); d != "" {
		t.Fatalf("recovered graph claimed the default slot: %q", d)
	}
	if _, err := reg.Default(); err == nil {
		t.Fatal("Default() resolved with an empty slot")
	}

	if _, err := reg.CreateRecovered("primary", gb, GraphSpec{Wait: true}, nil, RecoveredState{Epoch: 3, Seq: 5}); err != nil {
		t.Fatal(err)
	}
	waitReady(t, reg, "primary")
	if err := reg.SetDefault("nope"); err == nil {
		t.Fatal("SetDefault accepted an unknown graph")
	}
	if err := reg.SetDefault("primary"); err != nil {
		t.Fatalf("SetDefault: %v", err)
	}
	if d := reg.DefaultName(); d != "primary" {
		t.Fatalf("default %q, want primary", d)
	}
	if err := reg.SetDefault("tenant"); err == nil {
		t.Fatal("SetDefault silently re-pointed an occupied slot")
	}
	if err := reg.SetDefault("primary"); err != nil {
		t.Fatalf("SetDefault idempotent case: %v", err)
	}
}

func waitReady(t *testing.T, reg *Registry, name string) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if st, ok := reg.Status(name); ok && st.State != StateBuilding {
			if st.State != StateReady {
				t.Fatalf("graph %q: %s (%s)", name, st.State, st.Error)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("graph %q never left building", name)
}
