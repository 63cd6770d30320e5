package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// testGrid is the harness scenario: the triad fleet under the epoch
// rebalancer — the richest code path (multi-DC, cross-DC migrations,
// latency weighting) — kept small (48 VMs, one eval day = 24 slots)
// so the soak and golden tests run in well under a second.
func testGrid() sweep.Grid {
	return sweep.Grid{
		Policies:    []string{"EPACT"},
		VMs:         []int{48},
		MaxServers:  []int{48},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Transitions: []sweep.TransitionSpec{{Name: "default"}},
		Topologies:  []string{"triad"},
		Rebalances:  []string{"epoch:4"},
	}
}

func newTestServer(t *testing.T, opt Options) *Server {
	t.Helper()
	if opt.Grid.Policies == nil {
		opt.Grid = testGrid()
	}
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// def keys a default-session series: every sample now carries the
// session label first.
func def(name string, kv ...string) string {
	return name + "{" + labels(append([]string{"session", "default"}, kv...)...) + "}"
}

// parseMetrics parses an exposition page into a map keyed by the full
// series name (`ntc_slot{session="default"}`,
// `ntc_dc_vms{session="default",dc="core"}`).
func parseMetrics(t *testing.T, page string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("malformed value in %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	return out
}

// TestGoldenExposition byte-pins the full /metrics page for two
// sessions on the triad fleet — the default session at slot 8 and a
// delta session (static power 30 W) at slot 3 — exercising the
// session-label sharding and the sorted session page order. Any
// change to metric names, help strings, label sets, float formatting,
// or the underlying simulation numbers shows up as a byte diff here.
// Regenerate with: go test ./internal/serve -run TestGoldenExposition
// -update
func TestGoldenExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	if _, _, _, err := s.defaultSession().Step(8); err != nil {
		t.Fatalf("Step: %v", err)
	}
	scenB := s.Scenario()
	scenB.StaticPowerW = 30
	sessB, err := s.createSession("bstatic30", false, scenB)
	if err != nil {
		t.Fatalf("createSession: %v", err)
	}
	if _, _, _, err := sessB.Step(3); err != nil {
		t.Fatalf("session step: %v", err)
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	// Determinism contract: a second scrape at the same slot is
	// byte-identical (no scrape counters, no timestamps).
	var again bytes.Buffer
	if err := s.WriteMetrics(&again); err != nil {
		t.Fatalf("WriteMetrics (second render): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatalf("two scrapes at the same slot differ:\nfirst:\n%s\nsecond:\n%s", buf.String(), again.String())
	}

	golden := filepath.Join("testdata", "metrics_sessions.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition drifted from golden %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			golden, buf.String(), string(want))
	}
}

// TestExpositionSelfDescribing lints the page: every family carries
// exactly one # HELP and one # TYPE line before its samples, no two
// samples share a (name, labels) identity, families are sorted, and
// the page terminates with # EOF.
func TestExpositionSelfDescribing(t *testing.T) {
	s := newTestServer(t, Options{})
	if _, _, _, err := s.defaultSession().Step(3); err != nil {
		t.Fatalf("Step: %v", err)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	page := buf.String()
	if !strings.HasSuffix(page, "# EOF\n") {
		t.Fatalf("page does not terminate with %q", "# EOF\n")
	}

	helped := make(map[string]int)
	typed := make(map[string]int)
	seen := make(map[string]bool)
	var familyOrder []string
	for _, line := range strings.Split(strings.TrimSuffix(page, "\n"), "\n") {
		switch {
		case line == "# EOF":
		case strings.HasPrefix(line, "# HELP "):
			name := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)[0]
			helped[name]++
			familyOrder = append(familyOrder, name)
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[fields[0]]++
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unexpected comment line %q", line)
		default:
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				t.Fatalf("malformed sample line %q", line)
			}
			series := line[:i]
			name := series
			if j := strings.IndexByte(series, '{'); j >= 0 {
				name = series[:j]
			}
			if helped[name] != 1 || typed[name] != 1 {
				t.Fatalf("sample %q not preceded by exactly one HELP and one TYPE for %q (help=%d type=%d)",
					series, name, helped[name], typed[name])
			}
			if seen[series] {
				t.Fatalf("duplicate sample identity %q", series)
			}
			seen[series] = true
			if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
				t.Fatalf("unparsable value in %q: %v", line, err)
			}
		}
	}
	if !sort.StringsAreSorted(familyOrder) {
		t.Fatalf("families are not sorted: %v", familyOrder)
	}
	for name := range helped {
		if typed[name] != 1 {
			t.Fatalf("family %q has HELP but %d TYPE lines", name, typed[name])
		}
	}
	if len(seen) == 0 {
		t.Fatal("page has no samples")
	}
}

// TestReplayMatchesBatchRow replays the scenario to completion and
// checks the live accumulators against the batch sweep row for the
// identical scenario — the serve-layer face of the stepper property.
func TestReplayMatchesBatchRow(t *testing.T) {
	s := newTestServer(t, Options{})
	slot, done, _, err := s.defaultSession().Step(1 << 20)
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	if !done {
		t.Fatalf("replay not done after stepping everything (slot %d)", slot)
	}
	snap := s.Snapshot()
	if snap.Slot != snap.Slots {
		t.Fatalf("done at slot %d of %d", snap.Slot, snap.Slots)
	}

	row := s.runner.Exec(s.Scenario())
	if row.Err != "" {
		t.Fatalf("batch row failed: %s", row.Err)
	}
	if snap.Slots != row.Slots {
		t.Fatalf("slots: live %d, batch %d", snap.Slots, row.Slots)
	}
	if snap.Violations != row.Violations {
		t.Fatalf("violations: live %d, batch %d", snap.Violations, row.Violations)
	}
	if snap.Migrations != row.Migrations {
		t.Fatalf("migrations: live %d, batch %d", snap.Migrations, row.Migrations)
	}
	if snap.CrossDCMigrations != row.CrossDCMigrations {
		t.Fatalf("cross-DC migrations: live %d, batch %d", snap.CrossDCMigrations, row.CrossDCMigrations)
	}
	// The live cumulative energy is the slot series summed in slot
	// order; the batch total accumulates per-epoch. Same numbers,
	// different float-add order — compare to relative 1e-9.
	if relDiff(snap.EnergyMJ, row.TotalEnergyMJ) > 1e-9 {
		t.Fatalf("energy: live %v, batch %v", snap.EnergyMJ, row.TotalEnergyMJ)
	}
	if relDiff(snap.LatencyWeightedViol, row.LatencyWeightedViol) > 1e-9 {
		t.Fatalf("latency-weighted viol: live %v, batch %v", snap.LatencyWeightedViol, row.LatencyWeightedViol)
	}
	// EPScore is bit-exact: the live snapshot and the batch row read
	// the same fold of the same slot energies.
	if snap.EPScore() != row.EPScore {
		t.Fatalf("EP score: live %v, batch %v", snap.EPScore(), row.EPScore)
	}
	// Stepping a finished replay is a no-op, not an error.
	if slot2, done2, _, err := s.defaultSession().Step(3); err != nil || !done2 || slot2 != slot {
		t.Fatalf("step past end: slot %d done %v err %v", slot2, done2, err)
	}
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if m < 0 {
		m = -m
	}
	if bb := b; bb < 0 && -bb > m {
		m = -bb
	} else if bb > m {
		m = bb
	}
	return d / m
}

// TestHTTPEndpoints drives the full HTTP surface: manual ticks,
// status, health, method gates, and the monotone slot counter across
// scrapes.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postStep := func(body string) stepResponse {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/default/step", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/sessions/default/step: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /v1/sessions/default/step: status %d", resp.StatusCode)
		}
		var sr stepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decoding step response: %v", err)
		}
		return sr
	}

	if sr := postStep(""); sr.Slot != 1 || sr.Done {
		t.Fatalf("first step: %+v", sr)
	}
	if sr := postStep(`{"slots": 5}`); sr.Slot != 6 {
		t.Fatalf("step 5: %+v", sr)
	}

	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
			t.Fatalf("metrics content type %q", ct)
		}
		page, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return parseMetrics(t, string(page))
	}

	m := scrape()
	if m[def("ntc_slot")] != 6 || m[def("ntc_done")] != 0 {
		t.Fatalf("scrape at slot 6: slot=%v done=%v", m[def("ntc_slot")], m[def("ntc_done")])
	}

	// Status reports the same position plus the scenario identity.
	resp, err := http.Get(ts.URL + "/v1/sessions/default")
	if err != nil {
		t.Fatalf("GET /v1/sessions/default: %v", err)
	}
	var st struct {
		Scenario string `json:"scenario"`
		Slot     int    `json:"slot"`
		Slots    int    `json:"slots"`
		Done     bool   `json:"done"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	resp.Body.Close()
	if st.Scenario != s.Scenario().ID() || st.Slot != 6 || st.Done {
		t.Fatalf("status: %+v (want scenario %q slot 6)", st, s.Scenario().ID())
	}

	// Run out the replay; the counter is monotone and sticks at Slots.
	if sr := postStep(`{"slots": 1000}`); !sr.Done || sr.Slot != sr.Slots {
		t.Fatalf("step to end: %+v", sr)
	}
	m2 := scrape()
	if m2[def("ntc_slot")] < m[def("ntc_slot")] {
		t.Fatalf("slot counter went backwards: %v -> %v", m[def("ntc_slot")], m2[def("ntc_slot")])
	}
	if m2[def("ntc_done")] != 1 {
		t.Fatalf("ntc_done = %v at end of replay", m2[def("ntc_done")])
	}

	// Health and method gates.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %v %v", err, hr)
	}
	hr.Body.Close()
	for _, bad := range []struct{ method, path string }{
		{http.MethodPost, "/metrics"},
		{http.MethodGet, "/v1/sessions/default/whatif"},
		{http.MethodGet, "/v1/sessions/default/step"},
		{http.MethodPost, "/v1/sessions/default"},
	} {
		req, _ := http.NewRequest(bad.method, ts.URL+bad.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: status %d, want 405", bad.method, bad.path, resp.StatusCode)
		}
	}
}

// TestWhatIfRejections drives the validation gates over HTTP: every
// malformed or hostile delta is rejected before any scenario executes
// and lands on the rejected counter, never the request counter.
func TestWhatIfRejections(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
	}{
		{"malformed", `{"policies": [`},
		{"unknown-field", `{"polices": ["EPACT"]}`},
		{"trailing-data", `{"policies": ["EPACT"]} {"policies": ["COAT"]}`},
		{"axis-blowup", blowupBody()},
		{"file-topology", `{"topologies": ["uniform@/etc/fleet.json"]}`},
		{"unknown-policy", `{"policies": ["definitely-not-a-policy"]}`},
		{"vm-bound", fmt.Sprintf(`{"vms": [%d]}`, DefaultMaxWhatIfVMs+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sessions/default/whatif", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatalf("POST: %v", err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
				t.Fatalf("rejection body not a JSON error: %v %+v", err, e)
			}
		})
	}

	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	if m[def("ntc_whatif_rejected")] != float64(len(cases)) {
		t.Fatalf("ntc_whatif_rejected = %v, want %d", m[def("ntc_whatif_rejected")], len(cases))
	}
	if m[def("ntc_whatif_requests")] != 0 || m[def("ntc_whatif_scenarios")] != 0 {
		t.Fatalf("rejections leaked into accept counters: requests=%v scenarios=%v",
			m[def("ntc_whatif_requests")], m[def("ntc_whatif_scenarios")])
	}
}

// blowupBody builds a delta whose axis product exceeds any sane
// bound long before expansion.
func blowupBody() string {
	seeds := make([]string, 50)
	vms := make([]string, 50)
	srv := make([]string, 50)
	for i := range seeds {
		seeds[i] = strconv.Itoa(i + 1)
		vms[i] = strconv.Itoa(i + 10)
		srv[i] = strconv.Itoa(i + 10)
	}
	return fmt.Sprintf(`{"seeds": [%s], "vms": [%s], "max_servers": [%s]}`,
		strings.Join(seeds, ","), strings.Join(vms, ","), strings.Join(srv, ","))
}
