package sweep

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sweep/cache"
	"repro/internal/trace"
)

// writeTraceCSV materialises the canonical sweep trace for (seed,
// vms, days) as a native CSV file and returns its path.
func writeTraceCSV(t *testing.T, dir string, seed int64, vms, days int) string {
	t.Helper()
	tr, err := trace.Generate(DCTraceConfig(seed, vms, days))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// csvGrid is a small grid over a CSV-backed trace axis.
func csvGrid(path string) Grid {
	return Grid{
		Policies:    []string{"EPACT", "COAT", "FFD"},
		VMs:         []int{30},
		MaxServers:  []int{30},
		EvalDays:    1,
		HistoryDays: 1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Traces:      []string{"csv:" + path},
	}
}

// TestCachedRerunExecutesNothing is the incremental-cache acceptance
// check: re-running an identical grid with a warm rw store answers
// every scenario from the cache and emits byte-identical CSV/JSON.
func TestCachedRerunExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceCSV(t, dir, 2018, 30, 2)
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := Run(csvGrid(path), Options{Workers: 4, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Failed(); err != nil {
		t.Fatal(err)
	}
	if s := cold.Cache; s.Hits != 0 || s.Misses != 3 || s.Writes != 3 {
		t.Fatalf("cold run cache stats = %+v, want 0/3/3", s)
	}

	warmStore, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(csvGrid(path), Options{Workers: 4, Cache: warmStore})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Cache; s.Hits != 3 || s.Misses != 0 {
		t.Fatalf("warm run cache stats = %+v, want all hits (0 executed scenarios)", s)
	}
	// The loader saw zero traffic: nothing was ingested or predicted.
	if warm.Load.TraceBuilds != 0 || warm.Load.PredictBuilds != 0 {
		t.Errorf("warm run built inputs (%+v) despite full cache", warm.Load)
	}
	for i := range warm.Runs {
		if !warm.Runs[i].Cached {
			t.Errorf("run %d not marked cached", i)
		}
	}

	// Byte-identical outputs, cached vs uncached.
	if cold.CSV() != warm.CSV() {
		t.Errorf("cached CSV differs:\n%s\nvs\n%s", warm.CSV(), cold.CSV())
	}
	coldJSON, err := cold.JSON()
	if err != nil {
		t.Fatal(err)
	}
	warmJSON, err := warm.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Errorf("cached JSON differs from uncached run")
	}
}

// TestStaleKeysReExecute pins the invalidation rules: a changed axis
// value or an edited trace file must miss; an untouched scenario must
// still hit.
func TestStaleKeysReExecute(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceCSV(t, dir, 2018, 30, 2)
	open := func() *cache.Store {
		store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	if _, err := Run(csvGrid(path), Options{Workers: 2, Cache: open()}); err != nil {
		t.Fatal(err)
	}

	// Different static power → different scenario IDs → all miss.
	g := csvGrid(path)
	g.StaticPowerW = []float64{25}
	res, err := Run(g, Options{Workers: 2, Cache: open()})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Cache; s.Hits != 0 || s.Misses != 3 {
		t.Errorf("changed axis cache stats = %+v, want 0 hits, 3 misses", s)
	}

	// Unchanged grid still hits.
	res, err = Run(csvGrid(path), Options{Workers: 2, Cache: open()})
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Cache; s.Hits != 3 {
		t.Errorf("unchanged grid cache stats = %+v, want 3 hits", s)
	}

	// Editing the trace file flips its fingerprint: same grid, same
	// scenario IDs, but every row must re-execute.
	tr, err := trace.Generate(DCTraceConfig(99, 30, 2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Run(csvGrid(path), Options{Workers: 2, Cache: open()})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if s := res.Cache; s.Hits != 0 || s.Misses != 3 {
		t.Errorf("edited trace file cache stats = %+v, want 0 hits, 3 misses", s)
	}
}

// TestCacheHitRowIsByteIdentical pins the row-level contract: the hit
// returns the exact bytes the fresh execution produced.
func TestCacheHitRowIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	g := Grid{
		Policies:   []string{"EPACT"},
		VMs:        []int{30},
		MaxServers: []int{30},
		EvalDays:   1,
		Seeds:      []int64{2018},
		Predictors: []string{"arima"}, // exercise float-heavy fields
	}
	cold, err := Run(g, Options{Workers: 1, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Failed(); err != nil {
		t.Fatal(err)
	}
	warm, err := Run(g, Options{Workers: 1, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Runs[0].Cached {
		t.Fatal("second run did not hit the cache")
	}
	if warm.Runs[0].Fleet != nil {
		t.Error("cached row carries a live fleet result")
	}
	if cold.CSV() != warm.CSV() {
		t.Errorf("cached row CSV differs:\n%s\nvs\n%s", warm.CSV(), cold.CSV())
	}
}

// TestCachedRowWithUnknownFieldReExecutes: result-store rows decode
// strictly, so a stored row carrying a field this build does not know
// (a corrupt entry, or one another build wrote) is never served as a
// hit; the scenario re-executes and its fresh row replaces the entry.
func TestCachedRowWithUnknownFieldReExecutes(t *testing.T) {
	store, err := cache.Open(filepath.Join(t.TempDir(), "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	g := fuzzRowGrid()
	cold, err := Run(g, Options{Workers: 1, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Failed(); err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	s := cold.Runs[0].Scenario
	key, ok := r.CacheKey(s)
	if !ok {
		t.Fatal("scenario is uncacheable")
	}
	row, found := store.Get(key)
	if !found {
		t.Fatal("cold run stored no row")
	}
	if _, ok := DecodeCachedRow(row, s); !ok {
		t.Fatal("the stored row does not decode")
	}
	extra := append([]byte(`{"bogus":1,`), row[1:]...)
	if err := store.Put(key, extra); err != nil {
		t.Fatal(err)
	}

	warm, err := Run(g, Options{Workers: 1, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Runs[0].Cached {
		t.Fatal("a row with an unknown field was served as a cache hit")
	}
	if cold.CSV() != warm.CSV() {
		t.Errorf("re-executed row CSV differs:\n%s\nvs\n%s", warm.CSV(), cold.CSV())
	}
	if again, _ := store.Get(key); !bytes.Equal(again, row) {
		t.Errorf("the re-executed row did not replace the corrupt entry:\n%s\nwant\n%s", again, row)
	}
}

// TestFailedScenariosAreNotCached: a failing scenario re-executes on
// every run (transient failures must not stick).
func TestFailedScenariosAreNotCached(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	// A CSV trace with fewer VMs than the scenario needs fails at
	// load time.
	path := writeTraceCSV(t, dir, 2018, 5, 2)
	g := csvGrid(path) // wants 30 VMs, file holds 5
	res, err := Run(g, Options{Workers: 1, Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() == nil {
		t.Fatal("undersized trace did not fail")
	}
	if s := store.Stats(); s.Writes != 0 {
		t.Errorf("failed rows were written to the store (%+v)", s)
	}
}

// TestReadOnlyCacheServesWithoutWriting: ro mode replays a sealed
// store and leaves no new entries behind.
func TestReadOnlyCacheServesWithoutWriting(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceCSV(t, dir, 2018, 30, 2)
	cacheDir := filepath.Join(dir, "cache")
	rw, err := cache.Open(cacheDir, cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(csvGrid(path), Options{Workers: 2, Cache: rw}); err != nil {
		t.Fatal(err)
	}

	ro, err := cache.Open(cacheDir, cache.ModeRO)
	if err != nil {
		t.Fatal(err)
	}
	g := csvGrid(path)
	g.StaticPowerW = []float64{25} // one fresh axis: misses execute but are not persisted
	res, err := Run(g, Options{Workers: 2, Cache: ro})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if s := res.Cache; s.Writes != 0 || s.Misses != 3 {
		t.Errorf("read-only run stats = %+v, want 3 misses, 0 writes", s)
	}
}

// TestTraceAxisDeterminism extends the engine's worker-count contract
// to CSV-backed traces (the golden-pinned acceptance criterion runs
// at the CLI level; this is the engine half).
func TestTraceAxisDeterminism(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceCSV(t, dir, 7, 30, 2)
	g := csvGrid(path)
	g.Traces = []string{"synthetic", "csv:" + path}

	var baseCSV string
	var baseJSON []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(g, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != 6 {
			t.Fatalf("workers=%d: %d runs, want 6 (2 traces × 3 policies)", workers, len(res.Runs))
		}
		csv := res.CSV()
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			baseCSV, baseJSON = csv, js
			continue
		}
		if csv != baseCSV {
			t.Errorf("workers=%d: CSV differs from workers=1", workers)
		}
		if !bytes.Equal(js, baseJSON) {
			t.Errorf("workers=%d: JSON differs from workers=1", workers)
		}
	}

	// The synthetic and CSV halves agree row-for-row on the metrics:
	// the CSV file is the same canonical trace, so only the trace
	// column may differ.
	res, err := Run(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		syn, file := res.Runs[i], res.Runs[i+3]
		if syn.Scenario.TraceSpec != "synthetic" || file.Scenario.TraceSpec != "csv:"+path {
			t.Fatalf("unexpected trace axis order: %q, %q", syn.Scenario.TraceSpec, file.Scenario.TraceSpec)
		}
		// CSV stores 3 decimals, so energies differ in the far
		// decimals but active-server counts and violations match.
		if syn.Violations != file.Violations || syn.PeakActive != file.PeakActive {
			t.Errorf("policy %s: synthetic (%d viol, %d peak) vs csv (%d viol, %d peak)",
				syn.Scenario.Policy, syn.Violations, syn.PeakActive, file.Violations, file.PeakActive)
		}
	}
}

// TestFileTracesShareIngestionAcrossSeeds: file backends ignore the
// seed (absent churn), so a multi-seed grid must ingest the file and
// fit predictions exactly once.
func TestFileTracesShareIngestionAcrossSeeds(t *testing.T) {
	dir := t.TempDir()
	path := writeTraceCSV(t, dir, 2018, 30, 2)
	g := csvGrid(path)
	g.Seeds = []int64{1, 2, 3}
	res, err := Run(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if res.Load.TraceBuilds != 1 || res.Load.PredictBuilds != 1 {
		t.Errorf("load stats = %+v, want 1 trace build and 1 prediction build across 3 seeds", res.Load)
	}

	// With churn the seed feeds the arrival/departure draw, so each
	// seed needs its own churned copy.
	g.ChurnFractions = []float64{0.5}
	res, err = Run(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if res.Load.TraceBuilds != 3 {
		t.Errorf("churned load stats = %+v, want 3 trace builds (one per seed)", res.Load)
	}
}

func TestValidateRejectsBadTraceSpecs(t *testing.T) {
	for _, g := range []Grid{
		{Traces: []string{"bogus:x"}},
		{Traces: []string{"csv"}},
		{Traces: []string{"synthetic", "synthetic"}},
	} {
		if _, err := Expand(g); err == nil {
			t.Errorf("grid %+v expanded without error", g.Traces)
		}
	}
}
