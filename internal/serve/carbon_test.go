package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/topology"
)

// TestCarbonGaugesMatchBatch pins the serving layer's carbon
// accounting: a session driven to exhaustion exposes cumulative
// operational and embodied carbon gauges bit-exact with the batch run
// of its scenario, fleet-level and sharded per DC.
func TestCarbonGaugesMatchBatch(t *testing.T) {
	g := testGrid()
	g.Topologies = []string{"carbon-greedy@triad-carbon"}
	s := newTestServer(t, Options{Grid: g})

	cfg, err := s.runner.StepperConfig(s.Scenario())
	if err != nil {
		t.Fatalf("StepperConfig: %v", err)
	}
	batch, err := topology.Run(cfg)
	if err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	if batch.OperationalGCO2 <= 0 || batch.EmbodiedGCO2 <= 0 {
		t.Fatalf("triad-carbon batch carbon degenerate: %g/%g",
			batch.OperationalGCO2, batch.EmbodiedGCO2)
	}

	if _, _, _, err := s.defaultSession().Step(1 << 20); err != nil {
		t.Fatalf("Step: %v", err)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	if got := m[def("ntc_carbon_operational_g")]; relDiff(got, batch.OperationalGCO2) > 1e-12 {
		t.Errorf("ntc_carbon_operational_g = %v, batch %v", got, batch.OperationalGCO2)
	}
	if got := m[def("ntc_carbon_embodied_g")]; relDiff(got, batch.EmbodiedGCO2) > 1e-12 {
		t.Errorf("ntc_carbon_embodied_g = %v, batch %v", got, batch.EmbodiedGCO2)
	}
	for i, dc := range batch.DCs {
		op := m[def("ntc_dc_carbon_operational_g", "dc", dc.Name)]
		emb := m[def("ntc_dc_carbon_embodied_g", "dc", dc.Name)]
		if relDiff(op, dc.OperationalGCO2) > 1e-12 || relDiff(emb, dc.EmbodiedGCO2) > 1e-12 {
			t.Errorf("DC %d (%s) carbon gauges %v/%v, batch %v/%v",
				i, dc.Name, op, emb, dc.OperationalGCO2, dc.EmbodiedGCO2)
		}
	}
}

// TestWhatIfPowerModelAxis: the power-model axis is requestable as a
// what-if delta, answering one row per model with identical placement
// columns and different energy pricing.
func TestWhatIfPowerModelAxis(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/default/whatif", `{"power_models": ["ntc", "tdp"]}`)
	if code != http.StatusOK {
		t.Fatalf("what-if: status %d: %s", code, body)
	}
	var wr WhatIfResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Scenarios != 2 || len(wr.Rows) != 2 {
		t.Fatalf("power-model what-if answered %d scenarios, want 2", wr.Scenarios)
	}
	ntc, tdp := &wr.Rows[0], &wr.Rows[1]
	if ntc.Scenario.PowerModel != "ntc" || tdp.Scenario.PowerModel != "tdp" {
		t.Fatalf("row order: %q, %q", ntc.Scenario.PowerModel, tdp.Scenario.PowerModel)
	}
	if ntc.Violations != tdp.Violations || ntc.MeanActive != tdp.MeanActive {
		t.Errorf("power models diverged on placement: %+v vs %+v", ntc, tdp)
	}
	if ntc.TotalEnergyMJ == tdp.TotalEnergyMJ {
		t.Error("power models priced identical energy — the axis is inert over HTTP")
	}
}

// TestWhatIfSiblingsSideBySide: what-ifs on pricing siblings (EPACT on
// ntc and on tdp) posted at once execute side by side on the server's
// one Runner, where a call that finds its sibling's allocation pending
// computes later slots meanwhile. Each answer must be byte-identical to
// the same what-if answered alone by a fresh server.
func TestWhatIfSiblingsSideBySide(t *testing.T) {
	const path = "/v1/sessions/default/whatif"
	reqs := []string{`{"power_models": ["ntc"]}`, `{"power_models": ["tdp"]}`}
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		ts := httptest.NewServer(newTestServer(t, Options{}).Handler())
		code, _, body := doReq(t, ts, http.MethodPost, path, req)
		ts.Close()
		if code != http.StatusOK {
			t.Fatalf("what-if %s alone: status %d: %s", req, code, body)
		}
		want[i] = body
	}

	s := newTestServer(t, Options{WhatIfWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	got := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(req))
			if err != nil {
				t.Errorf("what-if %s: %v", req, err)
				return
			}
			defer resp.Body.Close()
			if got[i], err = io.ReadAll(resp.Body); err != nil {
				t.Errorf("what-if %s: %v", req, err)
			}
		}()
	}
	wg.Wait()
	for i, req := range reqs {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("what-if %s side by side:\n%s\nalone:\n%s", req, got[i], want[i])
		}
	}
	ld := s.runner.LoadStats()
	t.Logf("waiters computed %d allocations ahead, %d used", ld.LookaheadComputed, ld.LookaheadUsed)
}

// TestWhatIfIgnoresStaleV3Rows pins the v3→v4 migration on the
// serving layer's cache path: result rows persisted under the previous
// schema version never answer a what-if — the scenarios execute and
// are re-persisted under v4, after which the same request is warm.
func TestWhatIfIgnoresStaleV3Rows(t *testing.T) {
	dir := t.TempDir()
	g := gridForScenario(testGrid().WithDefaults(), mustBaseScenario(t))
	g.StaticPowerW = []float64{30}
	scens, err := sweep.Expand(g)
	if err != nil || len(scens) != 1 {
		t.Fatalf("delta expansion: %d scenarios, %v", len(scens), err)
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	store, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range scens {
		row := rn.Exec(sc)
		if row.Err != "" {
			t.Fatalf("planting scenario failed: %s", row.Err)
		}
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		key, ok := rn.CacheKeyForVersion(sc, "sweep-result-v3")
		if !ok {
			t.Fatal("scenario unexpectedly uncacheable")
		}
		if err := store.Put(key, b); err != nil {
			t.Fatal(err)
		}
	}

	store2, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Cache: store2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() WhatIfResponse {
		t.Helper()
		code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/default/whatif", `{"static_power_w": [30]}`)
		if code != http.StatusOK {
			t.Fatalf("what-if: status %d: %s", code, body)
		}
		var wr WhatIfResponse
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Fatal(err)
		}
		return wr
	}
	cold := post()
	if cold.CacheHits != 0 || cold.Executed != 1 {
		t.Fatalf("what-if over v3 rows: hits=%d executed=%d, want 0/1 (stale rows must not answer)",
			cold.CacheHits, cold.Executed)
	}
	warm := post()
	if warm.CacheHits != 1 || warm.Executed != 0 {
		t.Fatalf("repeat what-if: hits=%d executed=%d, want 1/0 (v4 rows were written)",
			warm.CacheHits, warm.Executed)
	}
	if len(cold.Rows) != 1 || len(warm.Rows) != 1 || cold.Rows[0].TotalEnergyMJ != warm.Rows[0].TotalEnergyMJ {
		t.Error("cold and warm rows disagree")
	}
}

// mustBaseScenario expands the test grid to its single base scenario.
func mustBaseScenario(t *testing.T) sweep.Scenario {
	t.Helper()
	scens, err := sweep.Expand(testGrid().WithDefaults())
	if err != nil || len(scens) != 1 {
		t.Fatalf("base expansion: %d scenarios, %v", len(scens), err)
	}
	return scens[0]
}
