package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/trace"
)

// doReq fires one request and returns the status, headers, and body.
func doReq(t *testing.T, ts *httptest.Server, method, path, body string) (int, http.Header, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, buf.Bytes()
}

// TestEndpointConformance is the table-driven API contract: every
// error on every endpoint is a JSON {"error": …} envelope with the
// right status code, 405s carry an Allow header, unknown paths (the
// removed /v1/step, /v1/status, /v1/whatif and
// /v1/sessions/{id}/status among them) and sessions are JSON 404s,
// and the step decoder is hermetic (unknown
// fields, trailing data, and oversized bodies are rejected with
// distinct statuses).
func TestEndpointConformance(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A pre-existing session for the duplicate-create case.
	if code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "dup"}`); code != http.StatusCreated {
		t.Fatalf("creating session dup: status %d: %s", code, body)
	}

	cases := []struct {
		name      string
		method    string
		path      string
		body      string
		wantCode  int
		wantAllow string
	}{
		{"metrics-post", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"healthz-delete", http.MethodDelete, "/healthz", "", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"whatif-get", http.MethodGet, "/v1/sessions/dup/whatif", "", http.StatusMethodNotAllowed, "POST"},
		{"step-get", http.MethodGet, "/v1/sessions/dup/step", "", http.StatusMethodNotAllowed, "POST"},
		{"status-post", http.MethodPost, "/v1/sessions/dup", "", http.StatusMethodNotAllowed, "GET, DELETE"},
		{"sessions-put", http.MethodPut, "/v1/sessions", "", http.StatusMethodNotAllowed, "GET, POST"},
		{"session-post", http.MethodPost, "/v1/sessions/default", "", http.StatusMethodNotAllowed, "GET, DELETE"},
		{"session-step-get", http.MethodGet, "/v1/sessions/default/step", "", http.StatusMethodNotAllowed, "POST"},
		{"session-whatif-get", http.MethodGet, "/v1/sessions/default/whatif", "", http.StatusMethodNotAllowed, "POST"},
		{"session-observe-get", http.MethodGet, "/v1/sessions/default/observe", "", http.StatusMethodNotAllowed, "POST"},

		{"unknown-path", http.MethodGet, "/nope", "", http.StatusNotFound, ""},
		{"unknown-session", http.MethodGet, "/v1/sessions/ghost", "", http.StatusNotFound, ""},
		{"unknown-session-step", http.MethodPost, "/v1/sessions/ghost/step", "", http.StatusNotFound, ""},
		{"unknown-session-whatif", http.MethodPost, "/v1/sessions/ghost/whatif", "{}", http.StatusNotFound, ""},
		{"removed-step", http.MethodPost, "/v1/step", `{"slots": 1}`, http.StatusNotFound, ""},
		{"removed-status", http.MethodGet, "/v1/status", "", http.StatusNotFound, ""},
		{"removed-whatif", http.MethodPost, "/v1/whatif", "{}", http.StatusNotFound, ""},
		{"removed-session-status", http.MethodGet, "/v1/sessions/default/status", "", http.StatusNotFound, ""},
		{"session-status-post", http.MethodPost, "/v1/sessions/default/status", "", http.StatusNotFound, ""},

		{"step-unknown-field", http.MethodPost, "/v1/sessions/default/step", `{"slots": 1, "bogus": 2}`, http.StatusBadRequest, ""},
		{"step-trailing-data", http.MethodPost, "/v1/sessions/default/step", `{"slots": 1} {}`, http.StatusBadRequest, ""},
		{"step-malformed", http.MethodPost, "/v1/sessions/default/step", `slots`, http.StatusBadRequest, ""},
		{"step-too-large", http.MethodPost, "/v1/sessions/default/step", `{"slots": 1}` + strings.Repeat(" ", maxStepBody), http.StatusRequestEntityTooLarge, ""},
		{"session-step-unknown-field", http.MethodPost, "/v1/sessions/default/step", `{"bogus": 2}`, http.StatusBadRequest, ""},
		// A closing bracket after the object is trailing data too.
		{"step-trailing-bracket", http.MethodPost, "/v1/sessions/default/step", `{"slots": 1}]`, http.StatusBadRequest, ""},
		{"observe-trailing-bracket", http.MethodPost, "/v1/sessions/default/observe", `{"slot": 0}}`, http.StatusBadRequest, ""},
		{"whatif-trailing-bracket", http.MethodPost, "/v1/sessions/default/whatif", `{"fork": true}]`, http.StatusBadRequest, ""},
		{"create-trailing-bracket", http.MethodPost, "/v1/sessions", `{"id": "b"}]`, http.StatusBadRequest, ""},

		{"create-bad-id", http.MethodPost, "/v1/sessions", `{"id": "no spaces"}`, http.StatusBadRequest, ""},
		{"create-empty-id", http.MethodPost, "/v1/sessions", `{}`, http.StatusBadRequest, ""},
		{"create-dup", http.MethodPost, "/v1/sessions", `{"id": "dup"}`, http.StatusConflict, ""},
		{"create-fork", http.MethodPost, "/v1/sessions", `{"id": "f", "fork": true}`, http.StatusBadRequest, ""},
		{"create-multi-scenario", http.MethodPost, "/v1/sessions", `{"id": "m", "policies": ["EPACT", "COAT"]}`, http.StatusBadRequest, ""},
		{"create-unknown-field", http.MethodPost, "/v1/sessions", `{"id": "u", "polices": ["EPACT"]}`, http.StatusBadRequest, ""},

		{"delete-default", http.MethodDelete, "/v1/sessions/default", "", http.StatusConflict, ""},
		{"observe-replay-session", http.MethodPost, "/v1/sessions/default/observe", `{"slot": 0, "cpu": [], "mem": []}`, http.StatusConflict, ""},
		{"whatif-fork-with-axes", http.MethodPost, "/v1/sessions/default/whatif", `{"fork": true, "policies": ["COAT"]}`, http.StatusBadRequest, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, body := doReq(t, ts, tc.method, tc.path, tc.body)
			if code != tc.wantCode {
				t.Fatalf("%s %s: status %d, want %d (body %s)", tc.method, tc.path, code, tc.wantCode, body)
			}
			if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
				t.Fatalf("%s %s: error content type %q, want application/json", tc.method, tc.path, ct)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
				t.Fatalf("%s %s: error body %q is not a JSON error envelope (%v)", tc.method, tc.path, body, err)
			}
			if tc.wantAllow != "" && hdr.Get("Allow") != tc.wantAllow {
				t.Fatalf("%s %s: Allow %q, want %q", tc.method, tc.path, hdr.Get("Allow"), tc.wantAllow)
			}
		})
	}

	// Lifecycle happy path: list shows both sessions sorted, retire
	// works once, the retired id 404s afterwards.
	code, _, body := doReq(t, ts, http.MethodGet, "/v1/sessions", "")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/sessions: status %d", code)
	}
	var list struct {
		Sessions []sessionStatus `json:"sessions"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("decoding session list: %v", err)
	}
	if len(list.Sessions) != 2 || list.Sessions[0].Session != "default" || list.Sessions[1].Session != "dup" {
		t.Fatalf("session list: %+v, want [default dup]", list.Sessions)
	}
	if list.Sessions[0].State != StateReplaying || list.Sessions[0].Ingest {
		t.Fatalf("default session status: %+v", list.Sessions[0])
	}
	if code, _, body := doReq(t, ts, http.MethodDelete, "/v1/sessions/dup", ""); code != http.StatusOK {
		t.Fatalf("DELETE /v1/sessions/dup: status %d: %s", code, body)
	}
	if code, _, _ := doReq(t, ts, http.MethodGet, "/v1/sessions/dup", ""); code != http.StatusNotFound {
		t.Fatalf("GET retired session: status %d, want 404", code)
	}
}

// TestSessionLimit pins the MaxSessions guard: the default session
// counts, and the limit answers 429.
func TestSessionLimit(t *testing.T) {
	s := newTestServer(t, Options{MaxSessions: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "a"}`); code != http.StatusCreated {
		t.Fatalf("creating a: status %d: %s", code, body)
	}
	if code, _, _ := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "b"}`); code != http.StatusTooManyRequests {
		t.Fatalf("creating past the limit: status %d, want 429", code)
	}
	// Retiring frees a slot.
	if code, _, _ := doReq(t, ts, http.MethodDelete, "/v1/sessions/a", ""); code != http.StatusOK {
		t.Fatal("retiring a")
	}
	if code, _, _ := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "b"}`); code != http.StatusCreated {
		t.Fatal("creating b after retiring a")
	}
}

// TestStepExhausted pins the 409 semantics: stepping a session whose
// replay is done is 409 Conflict, and the status reports state done.
func TestStepExhausted(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, _, _, err := s.defaultSession().Step(1 << 20); err != nil {
		t.Fatalf("Step: %v", err)
	}
	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/default/step", "")
	if code != http.StatusConflict {
		t.Fatalf("session step on exhausted replay: status %d, want 409 (%s)", code, body)
	}
	code, _, body = doReq(t, ts, http.MethodGet, "/v1/sessions/default", "")
	var st sessionStatus
	if err := json.Unmarshal(body, &st); err != nil || code != http.StatusOK {
		t.Fatalf("status: %d %v", code, err)
	}
	if st.State != StateDone || !st.Done {
		t.Fatalf("done session status: %+v", st)
	}
}

// observeBody renders the observe payload for one slot of a batch
// trace (the "real datacenter" whose telemetry the test replays).
func observeBody(t *testing.T, tr *trace.Trace, hist, slot int) string {
	t.Helper()
	req := observeRequest{
		Slot: slot,
		CPU:  make([][]float64, len(tr.VMs)),
		Mem:  make([][]float64, len(tr.VMs)),
	}
	lo := hist + slot*trace.SamplesPerSlot
	for i, vm := range tr.VMs {
		req.CPU[i] = vm.CPU[lo : lo+trace.SamplesPerSlot]
		req.Mem[i] = vm.Mem[lo : lo+trace.SamplesPerSlot]
	}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestIngestSessionMatchesBatch is the live-ingestion acceptance
// pin: a session created with {"ingest": true} replays observed
// samples POSTed slot by slot — gated with 409 before each slot's
// samples land — and the resulting series and totals are bit-exact
// with the batch fleet run over the fully known trace.
func TestIngestSessionMatchesBatch(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The reference world: the batch run over the full trace.
	scen := s.Scenario()
	cfg, err := s.runner.StepperConfig(scen)
	if err != nil {
		t.Fatalf("StepperConfig: %v", err)
	}
	batch, err := topology.Run(cfg)
	if err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	hist := scen.HistoryDays * trace.SamplesPerDay

	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "live", "ingest": true}`)
	if code != http.StatusCreated {
		t.Fatalf("creating ingest session: status %d: %s", code, body)
	}
	var st sessionStatus
	if err := json.Unmarshal(body, &st); err != nil || !st.Ingest || st.State != StateAwaiting {
		t.Fatalf("ingest session create response: %+v (%v)", st, err)
	}

	sess, ok := s.session("live")
	if !ok {
		t.Fatal("ingest session not registered")
	}
	for slot := 0; slot < st.Slots; slot++ {
		// Gated: stepping before the slot's samples land is a 409
		// that advances nothing.
		code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/live/step", "")
		if code != http.StatusConflict {
			t.Fatalf("slot %d: stepping unobserved slot: status %d (%s)", slot, code, body)
		}
		code, _, body = doReq(t, ts, http.MethodPost, "/v1/sessions/live/observe", observeBody(t, cfg.Trace, hist, slot))
		if code != http.StatusOK {
			t.Fatalf("slot %d: observe: status %d: %s", slot, code, body)
		}
		// Ask for more slots than are observed: the step stops at the
		// gate with partial progress and reports awaiting_samples.
		code, _, body = doReq(t, ts, http.MethodPost, "/v1/sessions/live/step", `{"slots": 5}`)
		if code != http.StatusOK {
			t.Fatalf("slot %d: step after observe: status %d: %s", slot, code, body)
		}
		var sr stepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Stepped != 1 || sr.Slot != slot+1 {
			t.Fatalf("slot %d: step response %+v, want stepped 1 to slot %d", slot, sr, slot+1)
		}
		if slot+1 < st.Slots && sr.State != StateAwaiting {
			t.Fatalf("slot %d: state %q, want %q", slot, sr.State, StateAwaiting)
		}
		// Bit-exactness per slot against the batch series.
		if got := sess.Snapshot().SlotEnergyMJ; got != batch.PerSlot[slot].EnergyMJ {
			t.Fatalf("slot %d: live energy %v, batch %v", slot, got, batch.PerSlot[slot].EnergyMJ)
		}
	}

	snap := sess.Snapshot()
	if !snap.Done || snap.State != StateDone || snap.Ingested != st.Slots {
		t.Fatalf("final ingest snapshot: done=%v state=%q ingested=%d", snap.Done, snap.State, snap.Ingested)
	}
	if snap.Violations != batch.Violations || snap.Migrations != batch.Migrations ||
		snap.CrossDCMigrations != batch.CrossDCMigrations {
		t.Fatalf("ingest totals diverge from batch: %+v vs %+v", snap, batch)
	}
	if relDiff(snap.EnergyMJ, batch.TotalEnergyMJ) > 1e-9 {
		t.Fatalf("ingest energy %v, batch %v", snap.EnergyMJ, batch.TotalEnergyMJ)
	}

	// Observe validation over HTTP: replaying an already-ingested
	// slot is a 409 (order violation), not a 400.
	code, _, _ = doReq(t, ts, http.MethodPost, "/v1/sessions/live/observe", observeBody(t, cfg.Trace, hist, 0))
	if code != http.StatusConflict {
		t.Fatalf("out-of-order observe: status %d, want 409", code)
	}
}

// TestForkWhatIf is the mid-replay fork acceptance pin: {"fork":
// true} at slot k answers the remaining window [k, end) bit-exactly
// equal to the batch run's slot series suffix, with full-horizon
// totals bit-exact with the batch aggregates, without executing any
// cached scenario, and the live session keeps stepping unperturbed.
func TestForkWhatIf(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg, err := s.runner.StepperConfig(s.Scenario())
	if err != nil {
		t.Fatalf("StepperConfig: %v", err)
	}
	batch, err := topology.Run(cfg)
	if err != nil {
		t.Fatalf("batch Run: %v", err)
	}

	const fork = 10
	if _, _, _, err := s.defaultSession().Step(fork); err != nil {
		t.Fatalf("Step: %v", err)
	}
	postFork := func(path string) ForkResponse {
		t.Helper()
		code, _, body := doReq(t, ts, http.MethodPost, path, `{"fork": true}`)
		if code != http.StatusOK {
			t.Fatalf("POST %s fork: status %d: %s", path, code, body)
		}
		var fr ForkResponse
		if err := json.Unmarshal(body, &fr); err != nil {
			t.Fatal(err)
		}
		return fr
	}
	fr := postFork("/v1/sessions/default/whatif")
	if !fr.Fork || fr.Session != "default" || fr.Slot != fork || fr.Slots != batch.Slots {
		t.Fatalf("fork response header: %+v", fr)
	}
	if len(fr.SlotEnergyMJ) != batch.Slots-fork {
		t.Fatalf("fork answered %d remaining slots, want %d", len(fr.SlotEnergyMJ), batch.Slots-fork)
	}
	for i, mj := range fr.SlotEnergyMJ {
		if mj != batch.PerSlot[fork+i].EnergyMJ {
			t.Fatalf("fork slot %d energy %v, batch %v", fork+i, mj, batch.PerSlot[fork+i].EnergyMJ)
		}
	}
	if fr.TotalEnergyMJ != batch.TotalEnergyMJ || fr.TotalViolations != batch.Violations || fr.EPScore != batch.EPScore {
		t.Fatalf("fork totals %+v diverge from batch %+v", fr, batch)
	}

	// The fork did not perturb the live session: it continues to the
	// same end state as the batch run.
	if _, _, _, err := s.defaultSession().Step(1 << 20); err != nil {
		t.Fatalf("Step after fork: %v", err)
	}
	snap := s.Snapshot()
	if relDiff(snap.EnergyMJ, batch.TotalEnergyMJ) > 1e-9 || snap.Violations != batch.Violations {
		t.Fatalf("live session diverged after fork: %+v vs %+v", snap, batch)
	}

	// Forking an exhausted session answers an empty remaining window
	// with the same totals.
	fr2 := postFork("/v1/sessions/default/whatif")
	if len(fr2.SlotEnergyMJ) != 0 || fr2.Slot != batch.Slots || fr2.TotalEnergyMJ != batch.TotalEnergyMJ {
		t.Fatalf("fork at end: %+v", fr2)
	}

	// Accounting: two forks, zero executions, and the counters live
	// on the forks gauge.
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	if m[def("ntc_whatif_forks")] != 2 || m[def("ntc_whatif_requests")] != 2 {
		t.Fatalf("fork counters: forks=%v requests=%v, want 2/2", m[def("ntc_whatif_forks")], m[def("ntc_whatif_requests")])
	}
	if m[def("ntc_whatif_executed")] != 0 || m[def("ntc_whatif_scenarios")] != 0 {
		t.Fatalf("forks leaked into scenario counters: executed=%v scenarios=%v",
			m[def("ntc_whatif_executed")], m[def("ntc_whatif_scenarios")])
	}
}

// TestForkTDPMatchesBatch: a fork of a `-power-model tdp` session
// plans against the platform's native model, as the batch row does,
// so the power-model axis stays placement-invariant across forks and
// the fork's totals and remaining series equal the batch run's.
func TestForkTDPMatchesBatch(t *testing.T) {
	g := testGrid()
	g.Topologies = []string{"single"}
	g.Rebalances = nil
	g.PowerModels = []string{"tdp"}
	s := newTestServer(t, Options{Grid: g})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cfg, err := s.runner.StepperConfig(s.Scenario())
	if err != nil {
		t.Fatalf("StepperConfig: %v", err)
	}
	if cfg.PowerModel != "tdp" {
		t.Fatalf("base scenario power model %q, want tdp", cfg.PowerModel)
	}
	batch, err := topology.Run(cfg)
	if err != nil {
		t.Fatalf("batch Run: %v", err)
	}
	const fork = 10
	if _, _, _, err := s.defaultSession().Step(fork); err != nil {
		t.Fatalf("Step: %v", err)
	}
	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/default/whatif", `{"fork": true}`)
	if code != http.StatusOK {
		t.Fatalf("fork: status %d: %s", code, body)
	}
	var fr ForkResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	if fr.TotalEnergyMJ != batch.TotalEnergyMJ || fr.TotalViolations != batch.Violations || fr.EPScore != batch.EPScore {
		t.Fatalf("tdp fork totals (%v MJ, %d violations) diverge from batch (%v MJ, %d violations)",
			fr.TotalEnergyMJ, fr.TotalViolations, batch.TotalEnergyMJ, batch.Violations)
	}
	var suffix []float64
	for _, c := range batch.PerSlot[fork:] {
		suffix = append(suffix, c.EnergyMJ)
	}
	if !reflect.DeepEqual(fr.SlotEnergyMJ, suffix) {
		t.Fatal("tdp fork's remaining slot series differs from the batch suffix")
	}
}

// TestForkIngestRejected: a live-ingestion session has no replayable
// future, so forking it is a 409 on the rejected counter.
func TestForkIngestRejected(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "live", "ingest": true}`); code != http.StatusCreated {
		t.Fatalf("creating ingest session: %d %s", code, body)
	}
	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/live/whatif", `{"fork": true}`)
	if code != http.StatusConflict {
		t.Fatalf("fork on ingest session: status %d, want 409 (%s)", code, body)
	}
	var buf bytes.Buffer
	if err := s.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	m := parseMetrics(t, buf.String())
	if got := m[fmt.Sprintf("ntc_whatif_rejected{session=%q}", "live")]; got != 1 {
		t.Fatalf("ntc_whatif_rejected{live} = %v, want 1", got)
	}
}

// TestSessionWhatIfDelta: a delta session's what-ifs apply against
// the SESSION's scenario, not the daemon base — the empty axis
// inherits the session's value.
func TestSessionWhatIfDelta(t *testing.T) {
	s := newTestServer(t, Options{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A session that deviates from the base on one axis.
	if code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions", `{"id": "coat", "policies": ["COAT"]}`); code != http.StatusCreated {
		t.Fatalf("creating delta session: %d %s", code, body)
	}
	code, _, body := doReq(t, ts, http.MethodPost, "/v1/sessions/coat/whatif", `{"static_power_w": [30]}`)
	if code != http.StatusOK {
		t.Fatalf("session what-if: status %d: %s", code, body)
	}
	var wr WhatIfResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Session != "coat" || wr.Scenarios != 1 {
		t.Fatalf("session what-if response: %+v", wr)
	}
	want := s.Scenario()
	want.Policy = "COAT"
	want.StaticPowerW = 30
	if wr.Rows[0].Scenario != want {
		t.Fatalf("what-if ran %+v, want the session-pinned %+v", wr.Rows[0].Scenario, want)
	}
}

// TestGridForScenario: pinning the base grid to a scenario expands
// back to exactly that scenario (the round-trip the session what-if
// base relies on).
func TestGridForScenario(t *testing.T) {
	base := testGrid().WithDefaults()
	scens, err := sweep.Expand(base)
	if err != nil || len(scens) != 1 {
		t.Fatalf("base expansion: %d scenarios, %v", len(scens), err)
	}
	scen := scens[0]
	scen.Policy = "COAT"
	scen.StaticPowerW = 30
	got, err := sweep.Expand(gridForScenario(base, scen))
	if err != nil {
		t.Fatalf("Expand(gridForScenario): %v", err)
	}
	if len(got) != 1 || got[0] != scen {
		t.Fatalf("gridForScenario round-trip: %+v, want %+v", got, scen)
	}
}

// Scenario returns the scenario the session replays.
func (sess *Session) Scenario() sweep.Scenario { return sess.scen }

// TestSnapshotFoldsTheSteps: after each of the first N steps, a
// session's snapshot equals a field-by-field fold of the SlotSteps an
// independent stepper of the same scenario returns — cumulative
// charges in slot order, the EP score over the slot energies so far,
// and the last slot's instantaneous values — fleet-level and per DC,
// bit for bit.
func TestSnapshotFoldsTheSteps(t *testing.T) {
	g := testGrid()
	g.Topologies = []string{"carbon-greedy@triad-carbon"}
	s := newTestServer(t, Options{Grid: g})
	cfg, err := s.runner.StepperConfig(s.Scenario())
	if err != nil {
		t.Fatalf("StepperConfig: %v", err)
	}
	st, err := topology.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type fold struct {
		energy, lwv, op, emb float64
		viol, mig, cross     int
		series               []float64
	}
	add := func(f *fold, c *topology.Charges) {
		f.energy += c.EnergyMJ
		f.lwv += c.LatencyWeightedViol
		f.op += c.OperationalGCO2
		f.emb += c.EmbodiedGCO2
		f.viol += c.Violations
		f.mig += c.Migrations
		f.cross += c.CrossDCMigrations
		f.series = append(f.series, c.EnergyMJ)
	}
	epScore := func(series []float64) float64 {
		lo, hi := series[0], series[0]
		for _, e := range series[1:] {
			if e < lo {
				lo = e
			}
			if e > hi {
				hi = e
			}
		}
		if hi <= 0 {
			return 1
		}
		return 1 - lo/hi
	}
	check := func(what string, tally topology.Tally, f *fold) {
		t.Helper()
		got := []float64{tally.EnergyMJ, tally.LatencyWeightedViol, tally.OperationalGCO2, tally.EmbodiedGCO2,
			float64(tally.Violations), float64(tally.Migrations), float64(tally.CrossDCMigrations), tally.EPScore()}
		want := []float64{f.energy, f.lwv, f.op, f.emb, float64(f.viol), float64(f.mig), float64(f.cross), epScore(f.series)}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: snapshot %v, fold of the steps %v (energy, lwv, op, emb, viol, mig, cross, ep)", what, got, want)
			}
		}
	}

	const n = 9 // two epoch:4 boundaries past the first
	var fleet fold
	dcs := make([]fold, len(st.Fleet().DCs))
	sess := s.defaultSession()
	for k := 0; k < n; k++ {
		step, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		add(&fleet, &step.Charges)
		for i := range step.DCs {
			add(&dcs[i], &step.DCs[i].Charges)
		}
		if _, _, _, err := sess.Step(1); err != nil {
			t.Fatal(err)
		}
		snap := sess.Snapshot()
		if snap.Slot != k+1 || snap.SlotEnergyMJ != step.EnergyMJ || snap.ActiveServers != step.ActiveServers {
			t.Fatalf("slot %d: snapshot at %d, last slot %v MJ on %d servers; step %v MJ on %d",
				k, snap.Slot, snap.SlotEnergyMJ, snap.ActiveServers, step.EnergyMJ, step.ActiveServers)
		}
		check(fmt.Sprintf("slot %d fleet", k), snap.Tally, &fleet)
		for i, d := range snap.DCs {
			v := step.DCs[i]
			if d.VMs != v.VMs || d.SlotEnergyMJ != v.EnergyMJ || d.ActiveServers != v.ActiveServers {
				t.Fatalf("slot %d DC %s: snapshot %d VMs, %v MJ, %d servers; step %d, %v, %d",
					k, d.Name, d.VMs, d.SlotEnergyMJ, d.ActiveServers, v.VMs, v.EnergyMJ, v.ActiveServers)
			}
			check(fmt.Sprintf("slot %d DC %s", k, d.Name), d.Tally, &dcs[i])
		}
	}
}
