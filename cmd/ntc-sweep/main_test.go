package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// sweepArgs is the acceptance grid: 6 policies × 2 transition models
// × 2 pool sizes = 24 scenarios at a test-friendly scale.
func sweepArgs(extra ...string) []string {
	args := []string{
		"-policies", "EPACT,COAT,COAT-OPT,FFD,Verma-binary,load-balance",
		"-vms", "40",
		"-max-servers", "40,20",
		"-transitions", "none,default",
		"-predictors", "oracle",
		"-days", "1",
	}
	return append(args, extra...)
}

// writeTestTrace writes a deterministic generated trace to dir in the
// native CSV format and returns its path.
func writeTestTrace(t *testing.T, dir string, seed int64, vms, days int) string {
	t.Helper()
	cfg := trace.DefaultConfig(seed)
	cfg.VMs = vms
	cfg.Days = days
	tr, err := trace.Generate(cfg)
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

// TestWorkerCountDoesNotChangeOutput is the CLI-level determinism
// acceptance check: the same 24-scenario grid through -workers=1 and
// -workers=8 must produce byte-identical CSV.
func TestWorkerCountDoesNotChangeOutput(t *testing.T) {
	var outputs []string
	for _, workers := range []string{"1", "8"} {
		var stdout, stderr bytes.Buffer
		if err := run(sweepArgs("-workers", workers, "-quiet"), &stdout, &stderr); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, stderr.String())
		}
		if n := strings.Count(stdout.String(), "\n"); n != 25 {
			t.Fatalf("workers=%s: %d CSV lines, want 25 (header + 24 scenarios)", workers, n)
		}
		outputs = append(outputs, stdout.String())
	}
	if outputs[0] != outputs[1] {
		t.Errorf("-workers=1 and -workers=8 disagree:\n%s\nvs\n%s", outputs[0], outputs[1])
	}
}

// TestCSVTraceAxisGolden pins the CSV-backed trace axis: the same
// trace file through 1, 4 and 8 workers must produce one
// byte-identical table whose rows match the golden values below.
// A drift here means the ingestion pipeline (CSV decode → fit →
// predict → simulate) changed, not just the generator.
func TestCSVTraceAxisGolden(t *testing.T) {
	path := writeTestTrace(t, t.TempDir(), 5, 24, 2)
	args := []string{
		"-policies", "EPACT,COAT",
		"-vms", "24",
		"-max-servers", "24",
		"-days", "1",
		"-history", "1",
		"-predictors", "oracle",
		"-trace", "csv:" + path,
		"-quiet",
	}

	var outputs []string
	for _, workers := range []string{"1", "4", "8"} {
		var stdout, stderr bytes.Buffer
		if err := run(append(args, "-workers", workers), &stdout, &stderr); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, stderr.String())
		}
		outputs = append(outputs, stdout.String())
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Fatalf("worker counts disagree on a CSV-backed trace:\n%s\nvs\n%s\nvs\n%s",
			outputs[0], outputs[1], outputs[2])
	}

	lines := strings.Split(strings.TrimSpace(outputs[0]), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d CSV lines, want 3 (header + EPACT + COAT):\n%s", len(lines), outputs[0])
	}
	// Golden rows, pinned (trace column carries the temp path, so
	// compare around it). The metric columns are unchanged since the
	// topology axis landed — the default "single" topology reproduces
	// the plain simulation bit-for-bit; only the provenance columns
	// (topology, dc_count, ep_score, per_dc with the axis, then
	// rebalance, cross_dc_migrations, latency_weighted_viol under
	// schema v3, then power_model, operational_gco2, embodied_gco2
	// under schema v4) were appended. The nonzero operational gCO2
	// is the default grid intensity (400 gCO2eq/kWh) pricing the same
	// facility energy; embodied stays zero until a fleet declares
	// manufacturing carbon.
	golden := []struct{ prefix, suffix string }{
		{"EPACT,oracle,none,csv:", ",24,24,1,2018,0,0,0,24,5.525656,0.000000,0,1.041667,2,0,1.783333,single,1,0.482606,,off,0,0.000000,ntc,613.961726,0.000000,"},
		{"COAT,oracle,none,csv:", ",24,24,1,2018,0,0,0,24,11.471419,0.000000,0,1.000000,1,0,3.100000,single,1,0.231086,,off,0,0.000000,ntc,1274.602107,0.000000,"},
	}
	for i, want := range golden {
		row := lines[i+1]
		if !strings.HasPrefix(row, want.prefix) {
			t.Errorf("row %d = %q, want prefix %q", i+1, row, want.prefix)
		}
		if !strings.HasSuffix(row, want.suffix) {
			t.Errorf("row %d = %q, want suffix %q", i+1, row, want.suffix)
		}
	}
}

// TestFleetSweepGoldenDeterministicAndCached is the multi-datacenter
// acceptance check: a fleet sweep over the 3-heterogeneous-DC triad
// under all three dispatch policies runs via -topology, is
// byte-deterministic across worker counts, answers a warm re-run
// entirely from the cache (0 executions), and matches the golden rows
// below. The rows pin the fleet-scale headline: consolidating the
// fleet onto its most energy-proportional site (greedy-proportional)
// beats uniform spreading, while chasing latency (follow-the-load)
// pushes load onto the conventional edge site and costs the most.
func TestFleetSweepGoldenDeterministicAndCached(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{
		"-policies", "EPACT,COAT",
		"-vms", "48",
		"-max-servers", "48",
		"-days", "1",
		"-predictors", "oracle",
		"-topology", "uniform@triad,greedy-proportional@triad,follow-the-load@triad",
		"-cache", "rw",
		"-cache-dir", cacheDir,
	}

	var outputs []string
	var lastErr string
	for _, workers := range []string{"1", "4", "8"} {
		var stdout, stderr bytes.Buffer
		if err := run(append(args, "-workers", workers), &stdout, &stderr); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, stderr.String())
		}
		outputs = append(outputs, stdout.String())
		lastErr = stderr.String()
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Fatalf("worker counts disagree on a fleet sweep:\n%s\nvs\n%s\nvs\n%s",
			outputs[0], outputs[1], outputs[2])
	}
	// The second and third runs were warm: every scenario came from
	// the store, nothing executed, nothing was ingested.
	if !strings.Contains(lastErr, "cache: 6 hits, 0 misses, 0 rows written") {
		t.Errorf("warm fleet re-run executed scenarios:\n%s", lastErr)
	}
	if !strings.Contains(lastErr, "0 traces built for 0 requests") {
		t.Errorf("warm fleet re-run ingested inputs:\n%s", lastErr)
	}

	golden := []string{
		"policy,predictor,transitions,trace,vms,max_servers,eval_days,seed,static_power_w,churn_fraction,churn_affected_vms,slots,total_energy_mj,transition_mj,violations,mean_active,peak_active,migrations,mean_planned_freq_ghz,topology,dc_count,ep_score,per_dc,rebalance,cross_dc_migrations,latency_weighted_viol,power_model,operational_gco2,embodied_gco2,error",
		"EPACT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,47.798861,0.000000,0,5.250000,7,0,1.712240,uniform@triad,3,0.409038,core=12.056;metro=7.699;edge=28.043,off,0,0.000000,ntc,5310.984591,0.000000,",
		"COAT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,68.204271,0.000000,0,4.458333,5,0,2.968750,uniform@triad,3,0.347015,core=23.830;metro=15.445;edge=28.929,off,0,0.000000,ntc,7578.252361,0.000000,",
		"EPACT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,22.115386,0.000000,0,3.708333,5,0,1.887500,greedy-proportional@triad,3,0.295219,core=22.115;metro=0.000;edge=0.000,off,0,0.000000,ntc,2457.265127,0.000000,",
		"COAT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,38.874682,0.000000,0,2.541667,3,0,3.100000,greedy-proportional@triad,3,0.275486,core=38.875;metro=0.000;edge=0.000,off,0,0.000000,ntc,4319.409158,0.000000,",
		"EPACT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,79.073546,0.000000,0,6.166667,7,0,1.820660,follow-the-load@triad,3,0.321275,core=4.377;metro=7.586;edge=67.110,off,0,0.000000,ntc,8785.949585,0.000000,",
		"COAT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,93.818028,0.000000,0,5.666667,6,0,2.706250,follow-the-load@triad,3,0.203881,core=10.566;metro=15.361;edge=67.891,off,0,0.000000,ntc,10424.225296,0.000000,",
	}
	lines := strings.Split(strings.TrimSpace(outputs[0]), "\n")
	if len(lines) != len(golden) {
		t.Fatalf("got %d CSV lines, want %d:\n%s", len(lines), len(golden), outputs[0])
	}
	for i, want := range golden {
		if lines[i] != want {
			t.Errorf("line %d drifted:\ngot  %s\nwant %s", i, lines[i], want)
		}
	}
}

// TestRebalanceSweepGoldenDeterministicAndCached is the cross-DC
// rebalancing acceptance check: the rebalance axis runs via
// -rebalance, is byte-deterministic across worker counts, answers a
// warm re-run entirely from the cache, reuses the same store through
// `-dist local:4` without leasing a unit, and matches the golden rows
// below. The rows pin the tentpole headline: a triad dispatched
// uniform but epoch-rebalanced onto the energy-proportional core
// (greedy-proportional every 4 slots) roughly halves fleet energy vs
// the static dispatch it started from, paying 23 cross-DC migrations
// whose downtime surfaces as violation-samples — latency-weighted 4×
// at the 40 ms core site.
func TestRebalanceSweepGoldenDeterministicAndCached(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")
	args := []string{
		"-policies", "EPACT,COAT",
		"-vms", "48",
		"-max-servers", "48",
		"-days", "1",
		"-predictors", "oracle",
		"-topology", "uniform@triad",
		"-rebalance", "off,epoch:4@greedy-proportional",
		"-cache", "rw",
		"-cache-dir", cacheDir,
	}

	var outputs []string
	var lastErr string
	for _, workers := range []string{"1", "4", "8"} {
		var stdout, stderr bytes.Buffer
		if err := run(append(args, "-workers", workers), &stdout, &stderr); err != nil {
			t.Fatalf("workers=%s: %v\n%s", workers, err, stderr.String())
		}
		outputs = append(outputs, stdout.String())
		lastErr = stderr.String()
	}
	if outputs[0] != outputs[1] || outputs[0] != outputs[2] {
		t.Fatalf("worker counts disagree on a rebalance sweep:\n%s\nvs\n%s\nvs\n%s",
			outputs[0], outputs[1], outputs[2])
	}
	if !strings.Contains(lastErr, "cache: 4 hits, 0 misses, 0 rows written") {
		t.Errorf("warm rebalance re-run executed scenarios:\n%s", lastErr)
	}
	if !strings.Contains(lastErr, "0 traces built for 0 requests") {
		t.Errorf("warm rebalance re-run ingested inputs:\n%s", lastErr)
	}

	golden := []string{
		"policy,predictor,transitions,trace,vms,max_servers,eval_days,seed,static_power_w,churn_fraction,churn_affected_vms,slots,total_energy_mj,transition_mj,violations,mean_active,peak_active,migrations,mean_planned_freq_ghz,topology,dc_count,ep_score,per_dc,rebalance,cross_dc_migrations,latency_weighted_viol,power_model,operational_gco2,embodied_gco2,error",
		"EPACT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,47.798861,0.000000,0,5.250000,7,0,1.712240,uniform@triad,3,0.409038,core=12.056;metro=7.699;edge=28.043,off,0,0.000000,ntc,5310.984591,0.000000,",
		"COAT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,68.204271,0.000000,0,4.458333,5,0,2.968750,uniform@triad,3,0.347015,core=23.830;metro=15.445;edge=28.929,off,0,0.000000,ntc,7578.252361,0.000000,",
		"EPACT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,24.811255,0.000000,23,3.833333,5,0,1.852431,uniform@triad,3,0.486770,core=20.635;metro=1.172;edge=3.004,epoch:4@greedy-proportional,23,92.000000,ntc,2756.806163,0.000000,",
		"COAT,oracle,none,synthetic,48,48,1,2018,0,0,0,24,42.170355,0.000000,23,2.750000,4,0,3.078125,uniform@triad,3,0.441364,core=36.566;metro=2.434;edge=3.169,epoch:4@greedy-proportional,23,92.000000,ntc,4685.595047,0.000000,",
	}
	lines := strings.Split(strings.TrimSpace(outputs[0]), "\n")
	if len(lines) != len(golden) {
		t.Fatalf("got %d CSV lines, want %d:\n%s", len(lines), len(golden), outputs[0])
	}
	for i, want := range golden {
		if lines[i] != want {
			t.Errorf("line %d drifted:\ngot  %s\nwant %s", i, lines[i], want)
		}
	}

	// The distributed path reuses the same store: a warm `-dist
	// local:4` run leases nothing, executes nothing, and emits the
	// exact bytes.
	var dout, derr bytes.Buffer
	distArgs := append([]string{}, args...)
	if err := run(append(distArgs, "-dist", "local:4"), &dout, &derr); err != nil {
		t.Fatalf("dist run: %v\n%s", err, derr.String())
	}
	if dout.String() != outputs[0] {
		t.Errorf("-dist local:4 rebalance CSV differs from the engine:\n%s\nvs\n%s", dout.String(), outputs[0])
	}
	if !strings.Contains(derr.String(), "dist: 4 units (4 cache hits), 0 leases to 0 workers") {
		t.Errorf("warm dist rebalance run leased work:\n%s", derr.String())
	}
}

// TestFleetJSONBytesPinned pins the full -json output of a multi-DC
// grid — static and epoch-rebalanced fleets, both power models — by
// SHA-256. The CSV rounds to 6 decimals, so only the JSON (which is
// also what the result cache stores) sees last-bit drift in float
// columns such as mean_planned_freq_ghz.
func TestFleetJSONBytesPinned(t *testing.T) {
	const want = "ff98a1c65c6c27e7e1dd542d7680d2c9d3bab71d4af1330bd9e980d895cc79b8"
	jsonPath := filepath.Join(t.TempDir(), "rows.json")
	args := []string{
		"-policies", "EPACT,COAT,COAT-OPT",
		"-predictors", "oracle",
		"-topology", "greedy-proportional@triad,uniform@triad,carbon-greedy@triad-carbon",
		"-rebalance", "off,epoch:4@greedy-proportional",
		"-power-model", "ntc,tdp",
		"-vms", "120",
		"-max-servers", "120",
		"-days", "2",
		"-history", "2",
		"-json", jsonPath,
	}
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(raw)); got != want {
		t.Errorf("-json output drifted: sha256 %s, want %s", got, want)
	}
}

// TestCacheRerunIsAllHitsAndByteIdentical is the CLI half of the
// incremental-cache acceptance criterion: the second -cache=rw run of
// an identical grid executes nothing (all hits, zero trace builds)
// and its CSV/JSON bytes match the first run's.
func TestCacheRerunIsAllHitsAndByteIdentical(t *testing.T) {
	dir := t.TempDir()
	tracePath := writeTestTrace(t, dir, 9, 30, 2)
	cacheDir := filepath.Join(dir, "cache")
	jsonA, jsonB := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")

	args := func(jsonOut string) []string {
		return []string{
			"-policies", "EPACT,COAT",
			"-vms", "30",
			"-max-servers", "30",
			"-days", "1",
			"-history", "1",
			"-predictors", "oracle",
			"-trace", "csv:" + tracePath,
			"-cache", "rw",
			"-cache-dir", cacheDir,
			"-json", jsonOut,
		}
	}

	var out1, err1 bytes.Buffer
	if err := run(args(jsonA), &out1, &err1); err != nil {
		t.Fatalf("%v\n%s", err, err1.String())
	}
	if !strings.Contains(err1.String(), "cache: 0 hits, 2 misses, 2 rows written") {
		t.Errorf("cold-run summary missing cache stats:\n%s", err1.String())
	}

	var out2, err2 bytes.Buffer
	if err := run(args(jsonB), &out2, &err2); err != nil {
		t.Fatalf("%v\n%s", err, err2.String())
	}
	// All hits, nothing executed: no trace was ingested, no
	// prediction set was built.
	if !strings.Contains(err2.String(), "cache: 2 hits, 0 misses, 0 rows written") {
		t.Errorf("warm-run summary shows executions:\n%s", err2.String())
	}
	if !strings.Contains(err2.String(), "0 traces built for 0 requests") {
		t.Errorf("warm run ingested inputs:\n%s", err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("cached CSV differs:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	a, err := os.ReadFile(jsonA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jsonB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("cached JSON differs from uncached run")
	}
}

func TestGridFileAndOutputFiles(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	csvPath := filepath.Join(dir, "out.csv")
	jsonPath := filepath.Join(dir, "out.json")
	if err := os.WriteFile(gridPath, []byte(`{
		"policies": ["EPACT", "COAT"],
		"vms": [40],
		"max_servers": [40],
		"eval_days": 1,
		"seeds": [2018],
		"predictors": ["oracle"]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	err := run([]string{"-grid", gridPath, "-csv", csvPath, "-json", jsonPath}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(csv, []byte("\n")); n != 3 {
		t.Errorf("CSV has %d lines, want 3 (header + 2 scenarios):\n%s", n, csv)
	}
	if !bytes.HasPrefix(csv, []byte("policy,predictor,")) {
		t.Errorf("CSV missing header:\n%s", csv)
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"total_energy_mj"`, `"EPACT"`, `"trace": "synthetic"`} {
		if !bytes.Contains(js, []byte(want)) {
			t.Errorf("JSON missing %s", want)
		}
	}
	// Execution metadata stays out of the JSON (the byte-identity
	// contract across worker counts and cache states).
	if bytes.Contains(js, []byte(`"trace_builds"`)) {
		t.Error("JSON leaks loader statistics")
	}
	if !strings.Contains(stderr.String(), "2 scenarios") {
		t.Errorf("summary missing scenario count:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "1 traces built for 2 requests") {
		t.Errorf("summary missing loader stats:\n%s", stderr.String())
	}
}

// TestDistLocalDeterminismAndWarmCache is the distributed
// acceptance criterion at the CLI level: the same grid through the
// plain engine and through `-dist local:4` (coordinator + 4 workers
// over the in-process transport) must produce byte-identical CSV, and
// a warm re-run over the shared result store must lease nothing and
// execute zero scenarios.
func TestDistLocalDeterminismAndWarmCache(t *testing.T) {
	cacheDir := filepath.Join(t.TempDir(), "cache")

	var engine, engineErr bytes.Buffer
	if err := run(sweepArgs("-workers", "2", "-quiet"), &engine, &engineErr); err != nil {
		t.Fatalf("engine run: %v\n%s", err, engineErr.String())
	}

	var cold, coldErr bytes.Buffer
	if err := run(sweepArgs("-dist", "local:4", "-cache", "rw", "-cache-dir", cacheDir), &cold, &coldErr); err != nil {
		t.Fatalf("dist run: %v\n%s", err, coldErr.String())
	}
	if cold.String() != engine.String() {
		t.Errorf("-dist local:4 CSV differs from the engine:\n%s\nvs\n%s", cold.String(), engine.String())
	}
	if !strings.Contains(coldErr.String(), "dist: 24 units (0 cache hits)") {
		t.Errorf("cold dist summary missing stats:\n%s", coldErr.String())
	}

	var warm, warmErr bytes.Buffer
	if err := run(sweepArgs("-dist", "local:4", "-cache", "rw", "-cache-dir", cacheDir), &warm, &warmErr); err != nil {
		t.Fatalf("warm dist run: %v\n%s", err, warmErr.String())
	}
	if warm.String() != engine.String() {
		t.Errorf("warm -dist CSV differs from the engine:\n%s", warm.String())
	}
	stderr := warmErr.String()
	if !strings.Contains(stderr, "dist: 24 units (24 cache hits), 0 leases to 0 workers") {
		t.Errorf("warm cluster leased work:\n%s", stderr)
	}
	if !strings.Contains(stderr, "cache: 24 hits, 0 misses, 0 rows written") {
		t.Errorf("warm cluster summary shows executions:\n%s", stderr)
	}
	if !strings.Contains(stderr, "0 traces built for 0 requests") {
		t.Errorf("warm cluster ingested inputs:\n%s", stderr)
	}
}

// syncBuffer lets the serve goroutine and the test poll stderr
// concurrently (the test scrapes the coordinator's bound address).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestServeWorkerEndToEndDeterminism runs the real two-process topology inside
// one test binary: `-serve 127.0.0.1:0` as the coordinator and two
// `-worker` invocations against the scraped address. The coordinator's
// CSV must match the plain engine's.
func TestServeWorkerEndToEndDeterminism(t *testing.T) {
	var engine, engineErr bytes.Buffer
	if err := run(sweepArgs("-workers", "2", "-quiet"), &engine, &engineErr); err != nil {
		t.Fatalf("engine run: %v\n%s", err, engineErr.String())
	}

	csvPath := filepath.Join(t.TempDir(), "out.csv")
	serveErrs := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var stdout bytes.Buffer
		serveDone <- run(sweepArgs("-serve", "127.0.0.1:0", "-csv", csvPath), &stdout, serveErrs)
	}()

	// Scrape the bound address from the coordinator's stderr.
	addrRe := regexp.MustCompile(`coordinator: listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if m := addrRe.FindStringSubmatch(serveErrs.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never reported its address:\n%s", serveErrs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var stdout, stderr bytes.Buffer
			workerErrs[i] = run([]string{"-worker", addr}, &stdout, &stderr)
		}(i)
	}
	wg.Wait()
	for i, err := range workerErrs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, serveErrs.String())
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != engine.String() {
		t.Errorf("-serve/-worker CSV differs from the engine:\n%s\nvs\n%s", csv, engine.String())
	}
	if !strings.Contains(serveErrs.String(), "dist: 24 units") {
		t.Errorf("coordinator summary missing dist stats:\n%s", serveErrs.String())
	}
}

// TestServeLingersUntilWorkersAreTold: once the sweep is done, a
// `-serve` coordinator exits as soon as its one loopback worker has
// been answered Done, not after the full lingerCap.
func TestServeLingersUntilWorkersAreTold(t *testing.T) {
	serveErrs := &syncBuffer{}
	serveDone := make(chan error, 1)
	go func() {
		var stdout bytes.Buffer
		serveDone <- run(sweepArgs("-serve", "127.0.0.1:0"), &stdout, serveErrs)
	}()
	addrRe := regexp.MustCompile(`coordinator: listening on (\S+)`)
	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if m := addrRe.FindStringSubmatch(serveErrs.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never reported its address:\n%s", serveErrs.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	var stdout, stderr bytes.Buffer
	if err := run([]string{"-worker", addr}, &stdout, &stderr); err != nil {
		t.Fatalf("worker: %v\n%s", err, stderr.String())
	}
	workerDone := time.Now()
	if err := <-serveDone; err != nil {
		t.Fatalf("coordinator: %v\n%s", err, serveErrs.String())
	}
	if linger := time.Since(workerDone); linger >= lingerCap/2 {
		t.Errorf("coordinator outlived its only worker by %v, want well under %v", linger, lingerCap)
	}
}

// TestResumeCLIMidGridRoundTrip is the CLI half of the crash-resume
// acceptance check: a -dist run journals every completion to
// -checkpoint-dir; the test amputates the journal to 10 of its 24 rows
// (exactly the on-disk state a coordinator killed mid-grid leaves
// behind) and restarts with -resume. The resumed run restores those
// rows without re-executing them, runs only the missing 14, and emits
// byte-identical CSV.
func TestResumeCLIMidGridRoundTrip(t *testing.T) {
	ckDir := filepath.Join(t.TempDir(), "ck")

	var full, fullErr bytes.Buffer
	if err := run(sweepArgs("-dist", "local:2", "-checkpoint-dir", ckDir), &full, &fullErr); err != nil {
		t.Fatalf("checkpointed run: %v\n%s", err, fullErr.String())
	}
	if !strings.Contains(fullErr.String(), "0 resumed") {
		t.Errorf("cold run claims resumed units:\n%s", fullErr.String())
	}

	journalPath := filepath.Join(ckDir, "journal.json")
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	// The journal is a header line and then one record per landed
	// Complete; keep the header and rewrite the records as one that
	// holds the first 10 rows and no live lease.
	lines := bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n"))
	var rows []any
	for _, line := range lines[1:] {
		var record map[string]any
		if err := json.Unmarshal(line, &record); err != nil {
			t.Fatal(err)
		}
		if r, ok := record["rows"].([]any); ok {
			rows = append(rows, r...)
		}
	}
	if len(rows) != 24 {
		t.Fatalf("journal holds %d rows, want 24", len(rows))
	}
	record, err := json.Marshal(map[string]any{"lease_id": 0, "rows": rows[:10]})
	if err != nil {
		t.Fatal(err)
	}
	cut := slices.Concat(lines[0], []byte("\n"), record, []byte("\n"))
	if err := os.WriteFile(journalPath, cut, 0o644); err != nil {
		t.Fatal(err)
	}

	var resumed, resumedErr bytes.Buffer
	if err := run([]string{"-resume", ckDir, "-dist", "local:2"}, &resumed, &resumedErr); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, resumedErr.String())
	}
	if resumed.String() != full.String() {
		t.Errorf("resumed CSV differs from the uninterrupted run:\n%s\nvs\n%s", resumed.String(), full.String())
	}
	stderr := resumedErr.String()
	if !strings.Contains(stderr, "resuming: 10 of 24 rows restored from "+ckDir) {
		t.Errorf("missing resume banner:\n%s", stderr)
	}
	if !strings.Contains(stderr, "10 resumed") {
		t.Errorf("dist summary missing the resumed count:\n%s", stderr)
	}

	// The resumed run kept journaling: a second -resume restores all
	// 24 rows and finishes without leasing a single unit.
	var again, againErr bytes.Buffer
	if err := run([]string{"-resume", ckDir, "-dist", "local:2"}, &again, &againErr); err != nil {
		t.Fatalf("re-resumed run: %v\n%s", err, againErr.String())
	}
	if again.String() != full.String() {
		t.Error("re-resumed CSV differs from the uninterrupted run")
	}
	if s := againErr.String(); !strings.Contains(s, "0 leases to 0 workers") || !strings.Contains(s, "24 resumed") {
		t.Errorf("complete journal still leased work:\n%s", s)
	}
}

// TestBadListValueErrors pins the error for a value of a numeric axis
// flag that does not parse: it names the flag, then the parser's own
// error for the offending element.
func TestBadListValueErrors(t *testing.T) {
	cases := []struct{ flag, value, want string }{
		{"-vms", "40,4x", `-vms: strconv.Atoi: parsing "4x": invalid syntax`},
		{"-max-servers", "1.5", `-max-servers: strconv.Atoi: parsing "1.5": invalid syntax`},
		{"-seeds", "1,s2", `-seeds: strconv.ParseInt: parsing "s2": invalid syntax`},
		{"-static", "watts", `-static: strconv.ParseFloat: parsing "watts": invalid syntax`},
		{"-churn", "0.1,x", `-churn: strconv.ParseFloat: parsing "x": invalid syntax`},
	}
	for _, c := range cases {
		t.Run(c.flag[1:], func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run([]string{c.flag, c.value}, &stdout, &stderr)
			if err == nil || err.Error() != c.want {
				t.Fatalf("run(%s %s) error = %v, want %q", c.flag, c.value, err, c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%s %s) wrote output despite failing:\n%s", c.flag, c.value, stdout.String())
			}
		})
	}
}

// TestBadFlagsSurfaceErrors: every unknown axis value must produce a
// clear error and a non-zero exit (run returning an error), never a
// panic or an empty table.
func TestBadFlagsSurfaceErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown-policy", []string{"-policies", "nope"}, "unknown policy"},
		{"unknown-predictor", []string{"-predictors", "prophet"}, "unknown predictor"},
		{"unknown-transitions", []string{"-transitions", "expensive"}, "unknown transition model"},
		{"unknown-trace-backend", []string{"-trace", "bogus:x"}, `unknown trace backend "bogus"`},
		{"csv-trace-without-path", []string{"-trace", "csv"}, "needs a file path"},
		{"unknown-topology", []string{"-topology", "bogus"}, `unknown fleet "bogus"`},
		{"unknown-dispatcher", []string{"-topology", "warp@triad"}, `unknown dispatcher "warp"`},
		{"grid-plus-topology-flag", []string{"-grid", "g.json", "-topology", "triad"}, "mutually exclusive"},
		{"unknown-power-model", []string{"-power-model", "sdp"}, `unknown power model "sdp"`},
		{"grid-plus-power-model-flag", []string{"-grid", "g.json", "-power-model", "tdp"}, "mutually exclusive"},
		{"unknown-rebalance", []string{"-rebalance", "hourly"}, "unknown rebalance spec"},
		{"zero-epoch-rebalance", []string{"-rebalance", "epoch:0"}, "positive slot count"},
		{"rebalance-bad-dispatcher", []string{"-rebalance", "epoch:4@warp"}, `unknown dispatcher "warp"`},
		{"grid-plus-rebalance-flag", []string{"-grid", "g.json", "-rebalance", "off"}, "mutually exclusive"},
		{"non-numeric-vms", []string{"-vms", "forty"}, "-vms"},
		{"negative-vms", []string{"-vms", "-3"}, "VMs must be positive"},
		{"churn-out-of-range", []string{"-churn", "1.5"}, "churn fraction"},
		{"missing-grid-file", []string{"-grid", "/does/not/exist.json"}, "no such file"},
		{"grid-plus-axis-flag", []string{"-grid", "g.json", "-policies", "EPACT"}, "mutually exclusive"},
		{"unknown-cache-mode", []string{"-cache", "readwrite"}, "unknown mode"},
		{"cache-without-dir", []string{"-cache", "rw"}, "needs a cache directory"},
		{"stray-args", []string{"extra"}, "unexpected arguments"},
		{"bad-dist-spec", []string{"-dist", "remote:4"}, "unknown spec"},
		{"zero-dist-workers", []string{"-dist", "local:0"}, "positive integer"},
		{"serve-plus-dist", []string{"-serve", ":0", "-dist", "local:2"}, "mutually exclusive"},
		{"worker-plus-serve", []string{"-worker", "x:1", "-serve", ":0"}, "mutually exclusive"},
		{"worker-plus-grid", []string{"-worker", "x:1", "-grid", "g.json"}, "mutually exclusive"},
		{"worker-plus-axis", []string{"-worker", "x:1", "-policies", "EPACT"}, "mutually exclusive"},
		{"worker-plus-csv", []string{"-worker", "x:1", "-csv", "out.csv"}, "mutually exclusive"},
		{"dist-plus-workers", []string{"-dist", "local:2", "-workers", "4"}, "in-process pool"},
		{"resume-without-mode", []string{"-resume", "ck"}, "needs a coordinator mode"},
		{"checkpoint-dir-without-mode", []string{"-checkpoint-dir", "ck"}, "needs a coordinator mode"},
		{"serve-blobs-without-mode", []string{"-serve-blobs=false"}, "needs a coordinator mode"},
		{"worker-plus-resume", []string{"-worker", "x:1", "-resume", "ck"}, "needs a coordinator mode"},
		{"resume-plus-checkpoint-dir", []string{"-dist", "local:2", "-resume", "a", "-checkpoint-dir", "b"}, "mutually exclusive"},
		{"resume-plus-grid", []string{"-dist", "local:2", "-resume", "a", "-grid", "g.json"}, "mutually exclusive"},
		{"resume-plus-axis", []string{"-dist", "local:2", "-resume", "a", "-policies", "EPACT"}, "mutually exclusive"},
		{"resume-missing-journal", []string{"-dist", "local:2", "-resume", "/does/not/exist"}, "reading checkpoint"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(c.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%v) error = %v, want mention of %q", c.args, err, c.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("run(%v) wrote output despite failing:\n%s", c.args, stdout.String())
			}
		})
	}

	// A corrupt checkpoint journal is a loud startup error, never a
	// partial resume.
	t.Run("resume-corrupt-journal", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.json"), []byte(`{"version":"dist-checkpoint-v1","grid":{`), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		err := run([]string{"-dist", "local:2", "-resume", dir}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "decoding checkpoint") {
			t.Fatalf("corrupt journal error = %v, want a loud decode failure", err)
		}
	})

	// A malformed grid-intensity profile in a fleet file is a
	// scenario-level failure whose message carries the line number of
	// the offending entry, so a bad DC in a long hand-written fleet
	// file is findable.
	t.Run("malformed-intensity-profile", func(t *testing.T) {
		fleetPath := filepath.Join(t.TempDir(), "bad.json")
		body := "{\"name\":\"bad\",\"dcs\":[\n{\"name\":\"a\",\n\"grid_intensity\":[1,2,3]}]}"
		if err := os.WriteFile(fleetPath, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		err := run([]string{"-topology", "uniform@" + fleetPath, "-vms", "10", "-days", "1", "-history", "1",
			"-policies", "EPACT", "-predictors", "oracle", "-quiet"}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "want 24") {
			t.Fatalf("malformed profile error = %v, want the 24-hour shape complaint", err)
		}
		if !strings.Contains(err.Error(), "line ") {
			t.Errorf("malformed profile error %q carries no line number", err)
		}
	})

	// A missing trace file is a scenario-level failure: the table
	// records it and the exit is non-zero.
	var stdout, stderr bytes.Buffer
	err := run([]string{"-trace", "csv:/does/not/exist.csv", "-vms", "10", "-days", "1", "-history", "1",
		"-policies", "EPACT", "-predictors", "oracle", "-quiet"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "no such file") {
		t.Errorf("missing trace file error = %v", err)
	}
	if !strings.Contains(stdout.String(), "no such file") {
		t.Errorf("missing trace file not recorded in the table:\n%s", stdout.String())
	}
}
