package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// goldenDoc is a fixed synthetic BENCH document exercising every schema
// field. Its serialized form is pinned in testdata/bench_schema_v4.golden.json.
func goldenDoc() benchDoc {
	allocs, bytes := 0.25, 48.5
	return benchDoc{
		SchemaVersion: benchSchemaVersion,
		Experiment:    "golden",
		Description:   "synthetic document pinning schema v4",
		Config: benchConfig{
			Dispatch:        "fast",
			Omega:           64,
			K:               8,
			Seed:            7,
			QueriesPerPoint: 1024,
			BatchSize:       256,
			Sizes:           []int{4096},
			Families:        []string{"uniform", "churn"},
			Mixes:           []string{"conn"},
			QueryDist:       "uniform",
			GoMaxProcs:      4,
			HTTPClients:     2,
		},
		Points: []benchPoint{
			{
				Family: "uniform", Mix: "conn", N: 4096, M: 6144,
				Queries: 1024, QPS: 250000.5,
				LatencyNs:      benchLatency{P50: 1000, P90: 2000, P95: 2500, P99: 4000, Max: 9000},
				AllocsPerQuery: &allocs, BytesPerQuery: &bytes,
				Asym: map[string]benchAsym{
					"connected": {Queries: 1024, ReadsPerQuery: 58.5, WritesPerQ: 1, WorkPerQuery: 136.25},
				},
			},
			{
				Family: "churn", Mix: "conn", N: 8192, M: 12288,
				Queries: 1024, QPS: 180000.25,
				LatencyNs:          benchLatency{P50: 1500, P90: 2200, P95: 2600, P99: 4100, Max: 9500},
				Asym:               map[string]benchAsym{"connected": {Queries: 1024, ReadsPerQuery: 60, WritesPerQ: 1, WorkPerQuery: 140}},
				ChurnBatches:       12,
				ChurnBatchesPerSec: 84.5,
				ChurnEpochs:        9,
				RebuildStrategies: map[string]map[string]int64{
					"bicc": {"lazy": 8, "patched-insert": 1},
					"conn": {"patched-insert": 5, "patched-delete": 4},
				},
				RebuildWritesPerBatch: map[string]float64{"bicc": 0, "conn": 12.5},
			},
		},
	}
}

// TestBenchGoldenSchema pins the BENCH JSON wire format: any change to the
// document shape — fields added, removed, renamed, retyped, or reordered —
// changes the serialized form and fails here. To change the schema
// deliberately, bump benchSchemaVersion, update docs/benchmark.md, and
// regenerate the golden with UPDATE_GOLDEN=1 go test ./cmd/wecbench.
func TestBenchGoldenSchema(t *testing.T) {
	doc := goldenDoc()
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	golden := filepath.Join("testdata", "bench_schema_v4.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if string(buf) != string(want) {
		t.Errorf("BENCH schema drifted from %s.\nIf intentional: bump benchSchemaVersion, update docs/benchmark.md, regenerate with UPDATE_GOLDEN=1.\ngot:\n%s\nwant:\n%s",
			golden, buf, want)
	}
	if err := validateBenchDoc(doc); err != nil {
		t.Errorf("golden document must validate: %v", err)
	}
}

// TestBenchValidate covers the validator's rejection paths.
func TestBenchValidate(t *testing.T) {
	mutate := func(f func(*benchDoc)) benchDoc {
		d := goldenDoc()
		f(&d)
		return d
	}
	cases := []struct {
		name string
		doc  benchDoc
	}{
		{"wrong version", mutate(func(d *benchDoc) { d.SchemaVersion = 99 })},
		{"empty experiment", mutate(func(d *benchDoc) { d.Experiment = "" })},
		{"bad dispatch", mutate(func(d *benchDoc) { d.Config.Dispatch = "warp" })},
		{"bad query dist", mutate(func(d *benchDoc) { d.Config.QueryDist = "hotspot" })},
		{"no points", mutate(func(d *benchDoc) { d.Points = nil })},
		{"point count mismatch", mutate(func(d *benchDoc) { d.Points = d.Points[:1] })},
		{"zero qps", mutate(func(d *benchDoc) { d.Points[0].QPS = 0 })},
		{"non-monotone latency", mutate(func(d *benchDoc) { d.Points[0].LatencyNs.P99 = 1 })},
		{"allocs without bytes", mutate(func(d *benchDoc) { d.Points[0].BytesPerQuery = nil })},
		{"no asym", mutate(func(d *benchDoc) { d.Points[0].Asym = nil })},
		{"asym undercount", mutate(func(d *benchDoc) {
			a := d.Points[0].Asym["connected"]
			a.Queries = 1
			d.Points[0].Asym["connected"] = a
		})},
		{"churn without throughput", mutate(func(d *benchDoc) { d.Points[1].ChurnBatchesPerSec = 0 })},
		{"rebuild telemetry without epochs", mutate(func(d *benchDoc) { d.Points[1].ChurnEpochs = 0 })},
		{"churn telemetry on non-churn point", mutate(func(d *benchDoc) { d.Points[0].ChurnEpochs = 3 })},
		{"negative publish writes", mutate(func(d *benchDoc) { d.Points[1].RebuildWritesPerBatch["conn"] = -1 })},
	}
	for _, tc := range cases {
		if err := validateBenchDoc(tc.doc); err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
	if err := validateBenchDoc(goldenDoc()); err != nil {
		t.Errorf("unmutated golden rejected: %v", err)
	}
}

// TestBenchTinySweep runs a seconds-scale engine sweep end to end — the
// in-process version of CI's bench-smoke job: sweep, validate, write, read
// back, validate again.
func TestBenchTinySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep builds oracles; skipped in -short")
	}
	restore := func(p *int, v int) func() { old := *p; *p = v; return func() { *p = old } }
	defer restore(benchQueries, 128)()
	defer restore(benchBatch, 32)()
	defer restore(benchOmega, 16)()

	doc := benchEngineSweep([]int{64})
	if err := validateBenchDoc(doc); err != nil {
		t.Fatalf("tiny sweep produced invalid document: %v", err)
	}
	for _, p := range doc.Points {
		if p.Family != "churn" && p.AllocsPerQuery == nil {
			t.Errorf("point %s/%s: missing alloc stats", p.Family, p.Mix)
		}
	}

	dir := t.TempDir()
	path, err := writeBenchFile(dir, doc)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back benchDoc
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("emitted file does not parse: %v", err)
	}
	if err := validateBenchDoc(back); err != nil {
		t.Errorf("emitted file does not re-validate: %v", err)
	}
	if back.Experiment != "query_hot_path" || path != filepath.Join(dir, "BENCH_query_hot_path.json") {
		t.Errorf("unexpected experiment/path: %s %s", back.Experiment, path)
	}

	// The emitted file is a valid -benchbase; other experiments are not.
	base, err := readBenchBase(path)
	if err != nil {
		t.Fatalf("emitted file rejected as -benchbase: %v", err)
	}
	benchCompare(base, doc)
	other := filepath.Join(dir, "other.json")
	if err := os.WriteFile(other, []byte(`{"experiment":"serve_http","points":[{}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readBenchBase(other); err == nil {
		t.Error("serve_http document accepted as -benchbase")
	}
}
