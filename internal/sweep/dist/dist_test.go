package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/trace"
)

// testGrid is a small mixed grid: 2 policies × 2 pool bounds × 2
// transition models = 8 scenarios over one shared 24-VM trace.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Policies:    []string{"EPACT", "COAT"},
		VMs:         []int{24},
		MaxServers:  []int{24, 12},
		HistoryDays: 1,
		EvalDays:    1,
		Predictors:  []string{"oracle"},
		Transitions: []sweep.TransitionSpec{{Name: "none"}, {Name: "default"}},
	}
}

// TestLocalDeterminismMatchesEngine is the core acceptance check: a distributed
// run (coordinator + 4 in-process workers) emits CSV and JSON
// byte-identical to the single-process engine on the same grid.
func TestLocalDeterminismMatchesEngine(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Failed(); err != nil {
		t.Fatal(err)
	}

	got, stats, err := runLocal(context.Background(), testGrid(), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Failed(); err != nil {
		t.Fatal(err)
	}
	if got.CSV() != want.CSV() {
		t.Errorf("distributed CSV differs from engine:\n%s\nvs\n%s", got.CSV(), want.CSV())
	}
	gj, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	wj, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Error("distributed JSON differs from engine")
	}
	if stats.Units != 8 || stats.Leases < 8 || stats.CacheHits != 0 {
		t.Errorf("stats = %+v, want 8 units all leased, no cache hits", stats)
	}
	if stats.Workers == 0 || stats.Workers > 4 {
		t.Errorf("stats.Workers = %d, want 1..4", stats.Workers)
	}
	// Worker load stats are merged into the summary fields: at least
	// one trace build, and requests >= builds.
	if got.Load.TraceBuilds < 1 || got.Load.TraceRequests < got.Load.TraceBuilds {
		t.Errorf("merged load stats implausible: %+v", got.Load)
	}
}

// TestDistReportsMemoHits: the allocation memo's hits reach the
// merged summary, in process and over the wire. testGrid's two
// transition models make every allocation call twice (pricing
// siblings); one worker sees both siblings, so its memo must answer
// some calls, and the merged count must say so.
func TestDistReportsMemoHits(t *testing.T) {
	ctx := context.Background()
	res, _, err := runLocal(ctx, testGrid(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.SharedPlacements <= 0 {
		t.Errorf("runLocal: %d memo hits, want > 0", res.Load.SharedPlacements)
	}

	c, err := NewCoordinator(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	if _, err := Work(ctx, NewClient(srv.URL), WorkerOptions{Name: "http", Poll: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.SharedPlacements <= 0 {
		t.Errorf("HTTP: %d memo hits, want > 0", res.Load.SharedPlacements)
	}
}

// TestWarmClusterExecutesNothing pins the dedup contract: with a warm
// result store, the coordinator answers every unit before leasing, no
// worker executes anything, and the output is byte-identical.
func TestWarmClusterExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	cold, stats, err := runLocal(context.Background(), testGrid(), 3, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 0 || cold.Cache.Writes != 8 {
		t.Fatalf("cold run: stats %+v, cache %+v", stats, cold.Cache)
	}

	store2, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	warm, wstats, err := runLocal(context.Background(), testGrid(), 3, Options{Cache: store2})
	if err != nil {
		t.Fatal(err)
	}
	if wstats.CacheHits != 8 || wstats.Leases != 0 {
		t.Errorf("warm run leased work: %+v", wstats)
	}
	if wstats.Workers != 0 {
		t.Errorf("warm run saw %d workers execute, want 0 checked in before done", wstats.Workers)
	}
	if warm.Load != (sweep.LoadStats{}) {
		t.Errorf("warm run loaded inputs: %+v", warm.Load)
	}
	if warm.CSV() != cold.CSV() {
		t.Errorf("warm CSV differs:\n%s\nvs\n%s", warm.CSV(), cold.CSV())
	}
	for i := range warm.Runs {
		if !warm.Runs[i].Cached {
			t.Errorf("run %d not marked cached on a warm cluster", i)
		}
	}
}

// TestStaleSchemaRowsNeverWarmCluster pins the v3→v4 migration on the
// coordinator's warm path: a store full of rows persisted under the
// previous result schema version answers nothing — every unit leases
// and executes, and the rows are written back under the current
// version, after which the cluster is genuinely warm.
func TestStaleSchemaRowsNeverWarmCluster(t *testing.T) {
	dir := t.TempDir()
	cold, _, err := runLocal(context.Background(), testGrid(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cold.Failed(); err != nil {
		t.Fatal(err)
	}

	rn, err := sweep.NewRunner(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold.Runs {
		key, ok := rn.CacheKeyForVersion(cold.Runs[i].Scenario, "sweep-result-v3")
		if !ok {
			t.Fatal("scenario unexpectedly uncacheable")
		}
		row, err := json.Marshal(cold.Runs[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, row); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	stale, sstats, err := runLocal(context.Background(), testGrid(), 3, Options{Cache: store2})
	if err != nil {
		t.Fatal(err)
	}
	if err := stale.Failed(); err != nil {
		t.Fatal(err)
	}
	if sstats.CacheHits != 0 || sstats.Leases < 8 {
		t.Errorf("v3 store warmed the cluster: %+v, want 0 hits and all units leased", sstats)
	}
	if stale.Cache.Writes != 8 {
		t.Errorf("v4 write-back wrote %d rows, want 8", stale.Cache.Writes)
	}
	if stale.CSV() != cold.CSV() {
		t.Errorf("stale-store CSV differs from cold:\n%s\nvs\n%s", stale.CSV(), cold.CSV())
	}

	store3, err := cache.Open(filepath.Join(dir, "cache"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	_, wstats, err := runLocal(context.Background(), testGrid(), 3, Options{Cache: store3})
	if err != nil {
		t.Fatal(err)
	}
	if wstats.CacheHits != 8 || wstats.Leases != 0 {
		t.Errorf("v4 rows did not warm the cluster: %+v", wstats)
	}
}

// TestLeaseExpiryRecoversCrashedWorker pins the crash path: a worker
// leases units and dies; after the TTL the coordinator re-leases them
// and a healthy worker completes the sweep.
func TestLeaseExpiryRecoversCrashedWorker(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c, err := NewCoordinator(testGrid(), Options{LeaseTTL: time.Minute, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The doomed worker grabs three units and is never heard from.
	reply, err := c.Lease(ctx, "doomed", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Units) != 3 {
		t.Fatalf("leased %d units, want 3", len(reply.Units))
	}

	// Inside the TTL its units stay owned: a second worker only gets
	// the remaining five, in fair shares of the leasable units over the
	// two workers (⌈5/2⌉, ⌈2/2⌉, ⌈1/2⌉), executes them, and completes
	// them in time.
	rn, err := sweep.NewRunner(testGrid())
	if err != nil {
		t.Fatal(err)
	}
	var done []UnitResult
	for _, want := range []int{3, 1, 1} {
		reply2, err := c.Lease(ctx, "healthy", 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply2.Units) != want {
			t.Fatalf("while leases are live, second worker got %d units, want %d", len(reply2.Units), want)
		}
		for _, u := range reply2.Units {
			done = append(done, UnitResult{Seq: u.Seq, Lease: u.Lease, Row: rn.Exec(u.Scenario)})
		}
	}
	if reply2, err := c.Lease(ctx, "healthy", 100); err != nil || len(reply2.Units) != 0 {
		t.Fatalf("with only live leases left, second worker got %d units (err %v), want 0", len(reply2.Units), err)
	}
	if err := c.Complete(ctx, "healthy", done, sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}

	// TTL passes; only the crashed worker's units become leasable
	// again, and a fresh worker's loop completes the sweep.
	now = now.Add(2 * time.Minute)
	if _, err := Work(ctx, c, WorkerOptions{Name: "replacement"}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.Expired != 3 {
		t.Errorf("stats.Expired = %d, want 3 reclaimed leases", stats.Expired)
	}

	// The result matches the engine run despite the retry.
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("post-crash CSV differs from engine output")
	}
}

// TestLeaseSharesTheTail pins the fair tail: a grant is capped at
// ⌈leasable units ÷ workers that have received work, the asker
// included⌉, so the last units of a sweep spread over the workers
// instead of going to one worker's batch while the other polls.
func TestLeaseSharesTheTail(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, step := range []struct {
		worker   string
		max      int
		want     int
		leasable int
	}{
		{"a", 2, 2, 8}, // one known worker: the batch is the limit
		{"b", 2, 2, 6},
		{"a", 4, 2, 4}, // two known workers, 4 units left: ⌈4/2⌉
		{"b", 4, 1, 2},
		{"a", 4, 1, 1},
		{"b", 4, 0, 0},
	} {
		reply, err := c.Lease(ctx, step.worker, step.max)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply.Units) != step.want {
			t.Fatalf("%s leasing %d of %d leasable units got %d, want %d",
				step.worker, step.max, step.leasable, len(reply.Units), step.want)
		}
	}
}

// TestRenewalKeepsSlowWorkerAlive pins the slow-scenario path: a
// worker executing past the TTL keeps its lease by renewing, so the
// unit is never re-leased; once the renewed window lapses without
// another renewal, expiry proceeds as usual.
func TestRenewalKeepsSlowWorkerAlive(t *testing.T) {
	now := time.Unix(1000, 0)
	c, err := NewCoordinator(testGrid(), Options{LeaseTTL: time.Minute, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	reply, err := c.Lease(ctx, "slow", 1)
	if err != nil {
		t.Fatal(err)
	}
	if reply.TTL != time.Minute {
		t.Fatalf("LeaseReply.TTL = %v, want the coordinator's 1m", reply.TTL)
	}
	u := reply.Units[0]
	ref := []UnitRef{{Seq: u.Seq, Lease: u.Lease}}

	// Renew at +50s: the original deadline (+60s) is pushed to +110s.
	now = now.Add(50 * time.Second)
	if err := c.Renew(ctx, "slow", ref); err != nil {
		t.Fatal(err)
	}
	// At +80s — past the original deadline — the unit is still owned.
	now = now.Add(30 * time.Second)
	poached, err := c.Lease(ctx, "poacher", 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range poached.Units {
		if p.Seq == u.Seq {
			t.Fatal("renewed lease was re-leased anyway")
		}
	}
	if s := c.Stats(); s.Renewals != 1 {
		t.Errorf("stats.Renewals = %d, want 1", s.Renewals)
	}

	// Without further renewals the renewed window lapses at +110s.
	now = now.Add(40 * time.Second)
	again, err := c.Lease(ctx, "poacher", 100)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range again.Units {
		found = found || p.Seq == u.Seq
	}
	if !found {
		t.Error("lapsed lease was not re-leased after the renewed window")
	}

	// Renewing a superseded lease is a silent no-op.
	if err := c.Renew(ctx, "slow", ref); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Renewals != 1 {
		t.Errorf("stale renewal was granted: Renewals = %d", s.Renewals)
	}
}

// TestLateResultFromPresumedDeadWorker: a worker that finishes after
// its lease was reclaimed is either recorded as stale (it won the
// race) or as a duplicate (the retry won) — never an error, and the
// row is the deterministic one either way.
func TestLateResultFromPresumedDeadWorker(t *testing.T) {
	now := time.Unix(1000, 0)
	c, err := NewCoordinator(testGrid(), Options{LeaseTTL: time.Minute, Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rn, err := sweep.NewRunner(testGrid())
	if err != nil {
		t.Fatal(err)
	}

	slow, err := c.Lease(ctx, "slow", 1)
	if err != nil {
		t.Fatal(err)
	}
	u := slow.Units[0]
	row := rn.Exec(u.Scenario)

	// Lease expires; the unit is re-leased and completed by "fast".
	now = now.Add(2 * time.Minute)
	again, err := c.Lease(ctx, "fast", 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Units[0].Seq != u.Seq {
		t.Fatalf("re-lease returned unit %d, want %d", again.Units[0].Seq, u.Seq)
	}
	fastU := again.Units[0]
	if err := c.Complete(ctx, "fast", []UnitResult{{Seq: fastU.Seq, Lease: fastU.Lease, Row: rn.Exec(fastU.Scenario)}}, sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}

	// The slow worker's result arrives afterwards: ignored, no error.
	if err := c.Complete(ctx, "slow", []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: row}}, sweep.LoadStats{}); err != nil {
		t.Fatalf("late duplicate result errored: %v", err)
	}
	if s := c.Stats(); s.Duplicates != 1 {
		t.Errorf("stats.Duplicates = %d, want 1", s.Duplicates)
	}
}

// TestDivergentWorkerInputsAreRejected pins the cache-poisoning
// guard: a worker whose copy of a file-backed input differs from the
// coordinator's (same path, different content) computes a different
// content fingerprint, and its Complete is rejected loudly — the row
// never reaches the results or the shared cache.
func TestDivergentWorkerInputsAreRejected(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "week.csv")
	writeTraceFile := func(seed int64) {
		cfg := trace.DefaultConfig(seed)
		cfg.VMs = 24
		cfg.Days = 2
		tr, err := trace.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(tracePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	g := testGrid()
	g.Traces = []string{"csv:" + tracePath}

	// The coordinator fingerprints the original file...
	writeTraceFile(1)
	c, err := NewCoordinator(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reply, err := c.Lease(ctx, "stale", 1)
	if err != nil {
		t.Fatal(err)
	}
	u := reply.Units[0]

	// ...then the worker's machine sees different content at the same
	// path (fresh Runner = fresh fingerprint memo, like a real remote
	// process).
	writeTraceFile(2)
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	key, ok := rn.CacheKey(u.Scenario)
	if !ok {
		t.Fatal("worker could not fingerprint inputs")
	}
	row := rn.Exec(u.Scenario)
	err = c.Complete(ctx, "stale", []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: row, Key: key}}, sweep.LoadStats{})
	if err == nil || !strings.Contains(err.Error(), "divergent inputs") {
		t.Fatalf("divergent-input completion error = %v, want a loud rejection", err)
	}

	// The unit is still pending and completes fine from a worker that
	// sees the coordinator's content.
	writeTraceFile(1)
	rn2, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	key2, _ := rn2.CacheKey(u.Scenario)
	if err := c.Complete(ctx, "fresh", []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: rn2.Exec(u.Scenario), Key: key2}}, sweep.LoadStats{}); err != nil {
		t.Fatalf("matching-input completion rejected: %v", err)
	}

	// Once the unit is done, the stale worker's late divergent result
	// is a counted duplicate, not an error — it can no longer poison
	// anything, and erring it would kill its batch's fresh rows.
	if err := c.Complete(ctx, "stale", []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: row, Key: key}}, sweep.LoadStats{}); err != nil {
		t.Fatalf("late divergent result for a done unit errored: %v", err)
	}
	if s := c.Stats(); s.Duplicates != 1 {
		t.Errorf("stats.Duplicates = %d, want 1", s.Duplicates)
	}
}

// TestWorkerMissingInputsIsRejected: a worker whose machine cannot
// read a file the coordinator fingerprinted returns an error row with
// no fingerprint — an artifact of that machine, not the scenario's
// canonical result. It is rejected so the unit retries elsewhere.
func TestWorkerMissingInputsIsRejected(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "week.csv")
	cfg := trace.DefaultConfig(1)
	cfg.VMs = 24
	cfg.Days = 2
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g := testGrid()
	g.Traces = []string{"csv:" + tracePath}
	c, err := NewCoordinator(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reply, err := c.Lease(ctx, "blind", 1)
	if err != nil {
		t.Fatal(err)
	}
	u := reply.Units[0]

	// The worker's machine lost the file: no fingerprint, error row.
	if err := os.Remove(tracePath); err != nil {
		t.Fatal(err)
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rn.CacheKey(u.Scenario); ok {
		t.Fatal("worker fingerprinted a missing file")
	}
	row := rn.Exec(u.Scenario)
	if row.Err == "" {
		t.Fatal("worker executed a missing file")
	}
	err = c.Complete(ctx, "blind", []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: row}}, sweep.LoadStats{})
	if err == nil || !strings.Contains(err.Error(), "failed to ingest") {
		t.Fatalf("machine-local failure accepted as the scenario's result: %v", err)
	}
}

// TestInvalidResultCannotStrandTheSweep pins the liveness fix: a
// batch whose first row completes the last pending unit and whose
// second row is invalid still errors — but the sweep is done and
// Wait returns instead of hanging forever.
func TestInvalidResultCannotStrandTheSweep(t *testing.T) {
	g := testGrid()
	g.MaxServers = []int{24}
	g.Transitions = []sweep.TransitionSpec{{Name: "none"}} // 2 units
	c, err := NewCoordinator(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}

	reply, err := c.Lease(ctx, "w", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Units) != 2 {
		t.Fatalf("leased %d units, want 2", len(reply.Units))
	}
	u0, u1 := reply.Units[0], reply.Units[1]
	if err := c.Complete(ctx, "w", []UnitResult{{Seq: u0.Seq, Lease: u0.Lease, Row: rn.Exec(u0.Scenario)}}, sweep.LoadStats{}); err != nil {
		t.Fatal(err)
	}

	// Final unit's row plus an out-of-range one in the same batch.
	batch := []UnitResult{
		{Seq: u1.Seq, Lease: u1.Lease, Row: rn.Exec(u1.Scenario)},
		{Seq: 999},
	}
	if err := c.Complete(ctx, "w", batch, sweep.LoadStats{}); err == nil {
		t.Fatal("invalid result accepted")
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("all units have rows but the sweep never completed (Wait would hang)")
	}
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteRejectsProtocolViolations: results for unknown units or
// mismatched scenarios are loud errors, not silent corruption.
func TestCompleteRejectsProtocolViolations(t *testing.T) {
	c, err := NewCoordinator(testGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reply, err := c.Lease(ctx, "w", 2)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Complete(ctx, "w", []UnitResult{{Seq: 999}}, sweep.LoadStats{}); err == nil {
		t.Error("out-of-range seq accepted")
	}
	u0, u1 := reply.Units[0], reply.Units[1]
	wrong := UnitResult{Seq: u0.Seq, Lease: u0.Lease, Row: sweep.RunResult{Scenario: u1.Scenario}}
	if err := c.Complete(ctx, "w", []UnitResult{wrong}, sweep.LoadStats{}); err == nil {
		t.Error("scenario mismatch accepted")
	}
}

// TestScenarioFailuresAreRowsNotRetries: a scenario that fails (bad
// trace file) completes as an error row and is never cached — exactly
// the engine's behaviour.
func TestScenarioFailuresAreRowsNotRetries(t *testing.T) {
	g := testGrid()
	g.Traces = []string{"csv:/does/not/exist.csv"}
	store, err := cache.Open(filepath.Join(t.TempDir(), "c"), cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	res, stats, err := runLocal(context.Background(), g, 2, Options{Cache: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err == nil {
		t.Fatal("missing trace file did not surface as a scenario failure")
	}
	if res.Cache.Writes != 0 {
		t.Errorf("failed scenarios were cached: %+v", res.Cache)
	}
	if stats.Units != 8 || stats.Leases < 8 {
		t.Errorf("stats = %+v, want all 8 units leased and completed", stats)
	}
	for i := range res.Runs {
		if res.Runs[i].Err == "" {
			t.Errorf("run %d has no error despite a missing trace file", i)
		}
	}
}

// fleetGrid is fleet-dist's shape at test scale: two policies on two
// three-DC fleets, static and under two epoch rebalancers, 12 rows over
// one trace.
func fleetGrid() sweep.Grid {
	return sweep.Grid{
		Policies:    []string{"EPACT", "COAT"},
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    1,
		Predictors:  []string{"oracle"},
		Topologies:  []string{"greedy-proportional@triad", "carbon-greedy@triad-carbon"},
		Rebalances:  []string{"off", "epoch:4@greedy-proportional", "epoch:6@carbon-greedy"},
	}
}

// quietGoroutines returns the goroutine count once it holds still:
// goroutines of earlier tests may still be exiting.
func quietGoroutines() int {
	n := runtime.NumGoroutine()
	for prev := -1; prev != n; {
		prev = n
		time.Sleep(20 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// goroutinesAfter returns the goroutine count once it has fallen to
// before, or after 5 s: a goroutine that has returned may still count
// for a moment.
func goroutinesAfter(before int) int {
	n := runtime.NumGoroutine()
	for end := time.Now().Add(5 * time.Second); n != before && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestLocalWorkersShareTheCoordinatorsRunner: in-process workers
// execute on their coordinator's one Runner, so two of them build the
// trace and the predictions once, and the merged load stats are that
// Runner's totals, memo hits and lookahead counted once. No goroutine
// outlives the sweep. A worker over HTTP still builds a Runner of its
// own, which takes no windows, and leaves the coordinator's untouched.
func TestLocalWorkersShareTheCoordinatorsRunner(t *testing.T) {
	ctx := context.Background()
	before := quietGoroutines()
	res, _, err := runLocal(ctx, fleetGrid(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if res.Load.TraceBuilds != 1 || res.Load.PredictBuilds != 1 {
		t.Errorf("runLocal at 2 workers: %d trace and %d prediction builds, want 1 and 1", res.Load.TraceBuilds, res.Load.PredictBuilds)
	}
	if after := goroutinesAfter(before); after != before {
		t.Errorf("%d goroutines after runLocal, %d before", after, before)
	}

	c, err := NewCoordinator(fleetGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = RunCoordinator(ctx, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if shared := c.exec.LoadStats(); res.Load != shared {
		t.Errorf("merged load stats %+v, want the shared Runner's %+v", res.Load, shared)
	}
	if res.Load.SharedPlacements <= 0 {
		t.Errorf("%d memo hits on a grid whose rows repeat each other's calls", res.Load.SharedPlacements)
	}
	if after := goroutinesAfter(before); after != before {
		t.Errorf("%d goroutines after RunCoordinator, %d before", after, before)
	}
	t.Logf("load: %+v", res.Load)

	c, err = NewCoordinator(fleetGrid(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()
	if _, err := Work(ctx, NewClient(srv.URL), WorkerOptions{Name: "http", Poll: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err = c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Load.TraceBuilds != 1 || res.Load.LookaheadComputed != 0 || res.Load.LookaheadUsed != 0 {
		t.Errorf("HTTP worker: load %+v, want its own trace build and no lookahead", res.Load)
	}
	if shared := c.exec.LoadStats(); shared != (sweep.LoadStats{}) {
		t.Errorf("an HTTP worker's run loaded through the coordinator's Runner: %+v", shared)
	}
}

// TestRowsLandBeforeTheirBatchFinishes: a worker completes each row as
// it finishes. While a worker is stuck on its second unit, the
// coordinator already holds the first row as done, has reported it to
// Progress and has journaled it.
func TestRowsLandBeforeTheirBatchFinishes(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var progressed atomic.Int64
	c, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, Progress: func(done, _ int) { progressed.Store(int64(done)) }})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stuck, unstick := make(chan struct{}), make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(unstick) })
	execs := 0
	slow := WorkerOptions{
		Name: "slow",
		Poll: time.Millisecond,
		execHook: func(rn *sweep.Runner, s sweep.Scenario) sweep.RunResult {
			if execs++; execs == 2 {
				close(stuck)
				<-unstick
			}
			return rn.Exec(s)
		},
	}
	errc := make(chan error, 1)
	go func() {
		_, err := Work(ctx, c, slow)
		errc <- err
	}()
	<-stuck

	if got := progressed.Load(); got != 1 {
		t.Errorf("Progress reported %d rows done while the worker's second unit runs, want 1", got)
	}
	c.mu.Lock()
	first := c.units[0].state
	c.mu.Unlock()
	if first != unitDone {
		t.Error("the worker's first row is not done while its second unit runs")
	}
	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed != 1 {
		t.Errorf("journal holds %d rows while the worker's second unit runs, want 1", ck.Completed)
	}

	once.Do(func() { close(unstick) })
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("CSV differs from engine")
	}
}

// runLocal runs the whole distributed pipeline in one process, as
// `ntc-sweep -dist local:N` does: a coordinator plus n worker
// goroutines over the in-process transport.
func runLocal(ctx context.Context, g sweep.Grid, n int, opt Options) (*sweep.Results, Stats, error) {
	c, err := NewCoordinator(g, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return RunCoordinator(ctx, c, n)
}
