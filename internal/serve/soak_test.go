package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep/cache"
)

// The goroutine-side helpers return errors instead of calling t.Fatal
// (which only the test goroutine may do).

func fmtErrorf(format string, args ...any) error { return fmt.Errorf(format, args...) }

func readAll(resp *http.Response) (string, error) {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

func parseMetricsErr(page string) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed value in %q: %w", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			return nil, fmt.Errorf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out, nil
}

// ses keys a series of an arbitrary session.
func ses(name, session string) string {
	return fmt.Sprintf("%s{session=%q}", name, session)
}

// TestConcurrencySoak is the torn-read and counter-reconciliation
// soak (run it under -race, as CI does): scrapers and what-if clients
// hammer the HTTP surface while ticker goroutines advance TWO
// sessions — the default session and a second session "b" created
// over HTTP with the empty delta, so both replay the identical
// scenario and can be checked against one reference replay. Every
// scrape must be internally consistent per session — the gauges on
// one page all belong to the slot that session reports — and the
// what-if counters must reconcile per session on every page, not just
// at the end. All soak what-ifs run against a pre-warmed cache, so
// every one of them must report zero executions, on both sessions.
func TestConcurrencySoak(t *testing.T) {
	store, err := cache.Open(t.TempDir(), cache.ModeRW)
	if err != nil {
		t.Fatalf("cache.Open: %v", err)
	}

	// Reference replay: the expected cumulative gauges per slot,
	// bit-exact because the live sessions accumulate through the
	// identical code path. One reference serves both sessions — they
	// replay the same scenario.
	ref := newTestServer(t, Options{})
	type slotState struct {
		energyMJ   float64
		violations float64
		lwViol     float64
		migrations float64
		crossDC    float64
	}
	refSnap := ref.Snapshot()
	expected := make([]slotState, refSnap.Slots+1)
	for !ref.Snapshot().Done {
		if _, _, _, err := ref.defaultSession().Step(1); err != nil {
			t.Fatalf("reference Step: %v", err)
		}
		sn := ref.Snapshot()
		expected[sn.Slot] = slotState{
			energyMJ:   sn.EnergyMJ,
			violations: float64(sn.Violations),
			lwViol:     sn.LatencyWeightedViol,
			migrations: float64(sn.Migrations),
			crossDC:    float64(sn.CrossDCMigrations),
		}
	}
	slots := ref.Snapshot().Slots

	s := newTestServer(t, Options{Cache: store, WhatIfWorkers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Second session over HTTP: the empty delta replays the base
	// scenario under its own stepper.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"id": "b"}`))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	if resp.StatusCode != http.StatusCreated {
		body, _ := readAll(resp)
		t.Fatalf("POST /v1/sessions: status %d: %s", resp.StatusCode, body)
	}
	resp.Body.Close()

	// Warm the cache: one cold request executes its scenarios and
	// persists them; everything the soak fires afterwards — on either
	// session — is warm.
	const whatifBody = `{"policies": ["EPACT", "COAT"], "static_power_w": [15, 30]}`
	postWhatIf := func(path string) (WhatIfResponse, error) {
		var wr WhatIfResponse
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(whatifBody))
		if err != nil {
			return wr, fmt.Errorf("POST %s: %w", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return wr, fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
			return wr, fmt.Errorf("decoding what-if response: %w", err)
		}
		return wr, nil
	}
	cold, err := postWhatIf("/v1/sessions/default/whatif")
	if err != nil {
		t.Fatal(err)
	}
	if cold.Scenarios != 4 {
		t.Fatalf("cold what-if answered %d scenarios, want 4", cold.Scenarios)
	}
	if cold.Executed != 4 || cold.CacheHits != 0 {
		t.Fatalf("cold what-if: executed=%d cacheHits=%d, want 4/0", cold.Executed, cold.CacheHits)
	}

	const (
		scrapers      = 4
		scrapesEach   = 30
		whatifClients = 3
		whatifsEach   = 10
	)

	var wg sync.WaitGroup
	errc := make(chan error, scrapers+whatifClients+2)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmtErrorf(format, args...):
		default:
		}
	}

	// Tickers: advance both sessions one slot at a time so scrapers
	// see many distinct intermediate slots per session. The default
	// session steps in-process; session b steps over HTTP.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !s.Snapshot().Done {
			if _, _, _, err := s.defaultSession().Step(1); err != nil {
				fail("Step: %v", err)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			resp, err := http.Post(ts.URL+"/v1/sessions/b/step", "application/json", strings.NewReader(""))
			if err != nil {
				fail("POST /v1/sessions/b/step: %v", err)
				return
			}
			var sr stepResponse
			code := resp.StatusCode
			err = json.NewDecoder(resp.Body).Decode(&sr)
			resp.Body.Close()
			if code != http.StatusOK {
				fail("POST /v1/sessions/b/step: status %d", code)
				return
			}
			if err != nil {
				fail("decoding session step response: %v", err)
				return
			}
			if sr.Session != "b" {
				fail("session step answered for %q, want b", sr.Session)
				return
			}
			if sr.Done {
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	for g := 0; g < scrapers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapesEach; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					fail("GET /metrics: %v", err)
					return
				}
				page, err := readAll(resp)
				if err != nil {
					fail("reading /metrics: %v", err)
					return
				}
				m, err := parseMetricsErr(page)
				if err != nil {
					fail("parsing /metrics: %v", err)
					return
				}
				for _, id := range []string{"default", "b"} {
					slot := int(m[ses("ntc_slot", id)])
					if slot < 0 || slot > slots {
						fail("session %s: scraped slot %d out of range [0,%d]", id, slot, slots)
						return
					}
					// Torn-read check: every gauge on the page must be
					// the reference value for the session's own slot.
					want := expected[slot]
					if got := m[ses("ntc_fleet_energy_mj", id)]; got != want.energyMJ {
						fail("session %s slot %d: energy %v, want %v (torn snapshot?)", id, slot, got, want.energyMJ)
						return
					}
					if got := m[ses("ntc_fleet_violations", id)]; got != want.violations {
						fail("session %s slot %d: violations %v, want %v", id, slot, got, want.violations)
						return
					}
					if got := m[ses("ntc_fleet_latency_weighted_viol", id)]; got != want.lwViol {
						fail("session %s slot %d: latency-weighted viol %v, want %v", id, slot, got, want.lwViol)
						return
					}
					if got := m[ses("ntc_fleet_migrations", id)]; got != want.migrations {
						fail("session %s slot %d: migrations %v, want %v", id, slot, got, want.migrations)
						return
					}
					if got := m[ses("ntc_fleet_cross_dc_migrations", id)]; got != want.crossDC {
						fail("session %s slot %d: cross-DC migrations %v, want %v", id, slot, got, want.crossDC)
						return
					}
					// Counter reconciliation holds per session on EVERY
					// page because what-if counters commit as one
					// transaction.
					if m[ses("ntc_whatif_scenarios", id)] != m[ses("ntc_whatif_executed", id)]+m[ses("ntc_whatif_cache_hits", id)] {
						fail("session %s whatif counters torn: scenarios=%v executed=%v hits=%v", id,
							m[ses("ntc_whatif_scenarios", id)], m[ses("ntc_whatif_executed", id)], m[ses("ntc_whatif_cache_hits", id)])
						return
					}
				}
				// Nothing after the cold warm-up may execute, on either
				// session.
				if m[ses("ntc_whatif_executed", "default")] != 4 || m[ses("ntc_whatif_executed", "b")] != 0 {
					fail("executed grew past the warm-up: default=%v b=%v",
						m[ses("ntc_whatif_executed", "default")], m[ses("ntc_whatif_executed", "b")])
					return
				}
			}
		}()
	}

	for g := 0; g < whatifClients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < whatifsEach; i++ {
				// Alternate targets: even iterations hit the default
				// session, odd ones hit session b.
				path, want := "/v1/sessions/default/whatif", "default"
				if i%2 == 1 {
					path, want = "/v1/sessions/b/whatif", "b"
				}
				wr, err := postWhatIf(path)
				if err != nil {
					fail("%v", err)
					return
				}
				if wr.Session != want {
					fail("what-if answered for session %q, want %q", wr.Session, want)
					return
				}
				if wr.Executed != 0 || wr.CacheHits != wr.Scenarios {
					fail("warm what-if executed %d of %d scenarios", wr.Executed, wr.Scenarios)
					return
				}
				for _, row := range wr.Rows {
					if row.Err != "" {
						fail("what-if row failed: %s", row.Err)
						return
					}
				}
			}
		}()
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiescent reconciliation: the store's traffic must match the
	// summed per-session what-if accounting exactly — every hit was
	// some session's what-if cache hit, every miss executed, every
	// execution was written back.
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	for _, id := range []string{"default", "b"} {
		if m[ses("ntc_slot", id)] != float64(slots) || m[ses("ntc_done", id)] != 1 {
			t.Fatalf("session %s replay did not finish: slot=%v done=%v", id, m[ses("ntc_slot", id)], m[ses("ntc_done", id)])
		}
	}
	// 3 clients x 10 requests, alternating: 15 warm requests per
	// session, 4 scenarios each.
	perSession := float64(whatifClients * whatifsEach / 2 * 4)
	for _, id := range []string{"default", "b"} {
		if m[ses("ntc_whatif_cache_hits", id)] != perSession {
			t.Fatalf("session %s: ntc_whatif_cache_hits = %v, want %v", id, m[ses("ntc_whatif_cache_hits", id)], perSession)
		}
	}
	sum := func(name string) float64 {
		return m[ses(name, "default")] + m[ses(name, "b")]
	}
	st := store.Stats()
	if float64(st.Hits) != sum("ntc_whatif_cache_hits") {
		t.Fatalf("store hits %d != summed what-if cache hits %v", st.Hits, sum("ntc_whatif_cache_hits"))
	}
	if float64(st.Misses) != sum("ntc_whatif_executed") {
		t.Fatalf("store misses %d != summed what-if executions %v", st.Misses, sum("ntc_whatif_executed"))
	}
	if st.Writes != st.Misses {
		t.Fatalf("store writes %d != misses %d (executions not persisted?)", st.Writes, st.Misses)
	}
	// The label-sharded cache gauges attribute the same traffic per
	// session; summed they equal the store's counters.
	if sum("ntc_cache_hits") != float64(st.Hits) || sum("ntc_cache_misses") != float64(st.Misses) || sum("ntc_cache_writes") != float64(st.Writes) {
		t.Fatalf("cache gauges drifted from store stats: page hits=%v misses=%v writes=%v, store %+v",
			sum("ntc_cache_hits"), sum("ntc_cache_misses"), sum("ntc_cache_writes"), st)
	}
	if m[ses("ntc_whatif_requests", "default")] != float64(1+whatifClients*whatifsEach/2) {
		t.Fatalf("default ntc_whatif_requests = %v, want %d", m[ses("ntc_whatif_requests", "default")], 1+whatifClients*whatifsEach/2)
	}
	if m[ses("ntc_whatif_requests", "b")] != float64(whatifClients*whatifsEach/2) {
		t.Fatalf("b ntc_whatif_requests = %v, want %d", m[ses("ntc_whatif_requests", "b")], whatifClients*whatifsEach/2)
	}
}
