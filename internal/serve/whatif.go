package serve

import (
	"fmt"
	"net/http"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/topology"
	"repro/internal/trace"
)

// WhatIfRequest is a scenario delta: per-axis value lists that
// replace the target session's scenario axes. Empty axes keep the
// session's value, so the empty request asks about exactly the live
// scenario. The horizon (history/eval days) is not part of the delta
// — what-ifs answer "same workload, different knobs", which is also
// what keeps every answer addressable in the result cache.
//
// Fork is the other kind of question: instead of re-running scenarios
// from slot 0, {"fork": true} clones the session's carried stepper
// state mid-replay and drives ONLY the remaining window — "how does
// the rest of THIS run end". A fork carries no axis deltas (the
// cloned state already encodes the scenario) and is answered by
// simulation, never the cache.
type WhatIfRequest struct {
	Policies     []string  `json:"policies,omitempty"`
	VMs          []int     `json:"vms,omitempty"`
	MaxServers   []int     `json:"max_servers,omitempty"`
	Seeds        []int64   `json:"seeds,omitempty"`
	StaticPowerW []float64 `json:"static_power_w,omitempty"`
	Predictors   []string  `json:"predictors,omitempty"`
	Transitions  []string  `json:"transitions,omitempty"`
	Topologies   []string  `json:"topologies,omitempty"`
	Rebalances   []string  `json:"rebalances,omitempty"`
	PowerModels  []string  `json:"power_models,omitempty"`

	Fork bool `json:"fork,omitempty"`
}

// axes returns the request's axis lengths, for bounding and for the
// fork-excludes-axes gate.
func (r *WhatIfRequest) axes() []int {
	return []int{
		len(r.Policies), len(r.VMs), len(r.MaxServers), len(r.Seeds),
		len(r.StaticPowerW), len(r.Predictors), len(r.Transitions),
		len(r.Topologies), len(r.Rebalances), len(r.PowerModels),
	}
}

// WhatIfResponse is the answer: one sweep row per scenario of the
// delta grid, in expansion order, plus the execution accounting the
// acceptance contract pins (a warm cache answers with Executed 0).
type WhatIfResponse struct {
	// Session is the session the delta was applied against.
	Session string `json:"session"`

	// Slot is the session's completed-slot count when the answer was
	// computed (what-ifs always cover the full horizon; Slot just
	// timestamps the answer against the live run).
	Slot int `json:"slot"`

	Scenarios int `json:"scenarios"`
	Executed  int `json:"executed"`
	CacheHits int `json:"cache_hits"`

	Rows []sweep.RunResult `json:"rows"`
}

// ForkResponse is the answer to {"fork": true}: the remaining-window
// aggregates of the session's cloned replay plus the full-horizon
// totals (past slots the session already replayed included).
type ForkResponse struct {
	Session string `json:"session"`

	// Slot is the fork point (completed slots when the clone was
	// taken); Slots is the horizon. The remaining window is
	// [Slot, Slots).
	Slot  int  `json:"slot"`
	Slots int  `json:"slots"`
	Fork  bool `json:"fork"`

	// Remaining-window aggregates: what the rest of the run costs.
	EnergyMJ            float64   `json:"energy_mj"`
	SlotEnergyMJ        []float64 `json:"slot_energy_mj"`
	Violations          int       `json:"violations"`
	LatencyWeightedViol float64   `json:"latency_weighted_viol"`
	Migrations          int       `json:"migrations"`
	CrossDCMigrations   int       `json:"cross_dc_migrations"`
	OperationalGCO2     float64   `json:"operational_gco2"`
	EmbodiedGCO2        float64   `json:"embodied_gco2"`

	// Full-horizon totals from the finished clone (bit-exact with the
	// batch row for the session's scenario — the clone contract).
	TotalEnergyMJ        float64 `json:"total_energy_mj"`
	TotalViolations      int     `json:"total_violations"`
	EPScore              float64 `json:"ep_score"`
	TotalOperationalGCO2 float64 `json:"total_operational_gco2"`
	TotalEmbodiedGCO2    float64 `json:"total_embodied_gco2"`
}

// gridForScenario pins every axis of the base grid to one scenario's
// values: the delta base for a session's what-ifs, so unset axes
// inherit the SESSION's scenario (for the default session this is
// exactly the base grid).
// Named transition models still resolve against the Runner's base
// grid, as in a direct what-if.
func gridForScenario(base sweep.Grid, s sweep.Scenario) sweep.Grid {
	g := base
	g.Policies = []string{s.Policy}
	g.VMs = []int{s.VMs}
	g.MaxServers = []int{s.MaxServers}
	g.HistoryDays = s.HistoryDays
	g.EvalDays = s.EvalDays
	g.Seeds = []int64{s.Seed}
	g.StaticPowerW = []float64{s.StaticPowerW}
	g.Predictors = []string{s.Predictor}
	g.Transitions = []sweep.TransitionSpec{{Name: s.Transitions}}
	g.ChurnFractions = []float64{s.ChurnFraction}
	g.Traces = []string{s.TraceSpec}
	g.Topologies = []string{s.Topology}
	g.Rebalances = []string{s.Rebalance}
	g.PowerModels = []string{s.PowerModel}
	return g
}

// decodeWhatIf parses and validates a what-if body against the delta
// base grid. A fork request returns (req, nil, nil) — there is
// nothing to expand; the caller replays carried state instead. Every
// rejection happens before any scenario executes, and every gate
// below is fuzz-pinned (FuzzWhatIfDecode). The body gates — the
// handler's size bound, then the first rule — are the ones the dist
// protocol applies to its POST bodies (FuzzHTTPProtocolDecode):
//
//   - unknown fields, malformed JSON and trailing data are rejected
//     (typo safety);
//   - a fork cannot carry axis deltas (the cloned state already IS a
//     scenario);
//   - axis values must validate against the sweep registries;
//   - no file-backed inputs: a request naming filesystem paths (trace
//     files, fleet JSON) would make the service read arbitrary local
//     files on behalf of a remote caller;
//   - the axis product is bounded BEFORE expansion, and VM counts are
//     bounded, so a crafted request cannot balloon memory or lease an
//     unbounded sweep.
func decodeWhatIf(body []byte, base sweep.Grid, maxScenarios, maxVMs int) (*WhatIfRequest, []sweep.Scenario, error) {
	var req WhatIfRequest
	if err := decodeBody(body, &req, "what-if"); err != nil {
		return nil, nil, fmt.Errorf("serve: %w", err)
	}
	if req.Fork {
		for _, n := range req.axes() {
			if n > 0 {
				return nil, nil, fmt.Errorf("serve: a fork continues the session's carried scenario; axis deltas are not allowed")
			}
		}
		return &req, nil, nil
	}
	scens, err := applyDelta(base, &req, maxScenarios, maxVMs)
	if err != nil {
		return nil, nil, err
	}
	return &req, scens, nil
}

// applyDelta bounds and validates a delta, overlays it on the base
// grid, and expands the result.
func applyDelta(base sweep.Grid, req *WhatIfRequest, maxScenarios, maxVMs int) ([]sweep.Scenario, error) {
	// Bound the axis product before expanding anything. Unset axes
	// inherit the base grid's (already size-1) values.
	prod := 1
	for _, n := range req.axes() {
		if n > 1 {
			prod *= n
		}
		if prod > maxScenarios {
			return nil, fmt.Errorf("serve: what-if axis product exceeds the %d-scenario bound", maxScenarios)
		}
	}
	for _, v := range req.VMs {
		if v > maxVMs {
			return nil, fmt.Errorf("serve: what-if vms %d exceeds the %d-VM bound", v, maxVMs)
		}
	}

	// Hermeticity: no file-backed fleets. (The trace axis is not part
	// of the delta surface at all — the base trace is the workload the
	// question is about — but the base grid's own spec is re-checked
	// below for defence in depth.)
	for _, spec := range req.Topologies {
		s, err := topology.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if s.IsFile {
			return nil, fmt.Errorf("serve: what-if topology %q names a fleet file; only built-in fleets are allowed", spec)
		}
	}
	for _, spec := range base.Traces {
		src, err := trace.ParseSourceSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		if src.IsFile() {
			return nil, fmt.Errorf("serve: what-if over the file-backed base trace %q is not supported", spec)
		}
	}

	g := base
	if len(req.Policies) > 0 {
		g.Policies = req.Policies
	}
	if len(req.VMs) > 0 {
		g.VMs = req.VMs
	}
	if len(req.MaxServers) > 0 {
		g.MaxServers = req.MaxServers
	}
	if len(req.Seeds) > 0 {
		g.Seeds = req.Seeds
	}
	if len(req.StaticPowerW) > 0 {
		g.StaticPowerW = req.StaticPowerW
	}
	if len(req.Predictors) > 0 {
		g.Predictors = req.Predictors
	}
	if len(req.Transitions) > 0 {
		// Names only: a what-if cannot define new transition models,
		// it selects registered ones (or the base grid's named ones,
		// which the runner resolves by name).
		specs := make([]sweep.TransitionSpec, len(req.Transitions))
		for i, name := range req.Transitions {
			specs[i] = sweep.TransitionSpec{Name: name}
		}
		g.Transitions = specs
	}
	if len(req.Topologies) > 0 {
		g.Topologies = req.Topologies
	}
	if len(req.Rebalances) > 0 {
		g.Rebalances = req.Rebalances
	}
	if len(req.PowerModels) > 0 {
		g.PowerModels = req.PowerModels
	}

	// Expand validates every axis value against the registries; the
	// product is already bounded, so this cannot balloon.
	scens, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	if len(scens) > maxScenarios {
		return nil, fmt.Errorf("serve: what-if expands to %d scenarios, bound is %d", len(scens), maxScenarios)
	}
	return scens, nil
}

// sessionCreateRequest is the POST /v1/sessions body: a session id,
// the live-ingestion switch, and an embedded axis delta applied
// against the daemon's base grid.
type sessionCreateRequest struct {
	ID     string `json:"id"`
	Ingest bool   `json:"ingest,omitempty"`
	WhatIfRequest
}

// decodeSessionCreate parses a session-create body with the what-if
// gates (the delta surface is identical) plus the session rules: a
// valid id and a delta that pins exactly one scenario.
func decodeSessionCreate(body []byte, base sweep.Grid, maxScenarios, maxVMs int) (id string, ingest bool, scen sweep.Scenario, err error) {
	var req sessionCreateRequest
	if err := decodeBody(body, &req, "session-create"); err != nil {
		return "", false, sweep.Scenario{}, fmt.Errorf("serve: %w", err)
	}
	if err := validSessionID(req.ID); err != nil {
		return "", false, sweep.Scenario{}, err
	}
	if req.Fork {
		return "", false, sweep.Scenario{}, fmt.Errorf("serve: fork is a what-if option, not a session-create option")
	}
	scens, err := applyDelta(base, &req.WhatIfRequest, maxScenarios, maxVMs)
	if err != nil {
		return "", false, sweep.Scenario{}, err
	}
	if len(scens) != 1 {
		return "", false, sweep.Scenario{}, fmt.Errorf("serve: session delta expands to %d scenarios, want exactly 1 (a session replays one live run)", len(scens))
	}
	return req.ID, req.Ingest, scens[0], nil
}

// validSessionID enforces the id alphabet: 1-64 chars of
// [A-Za-z0-9._-] — safe in URLs and metric labels unescaped.
func validSessionID(id string) error {
	if id == "" {
		return fmt.Errorf("serve: session id must be non-empty")
	}
	if len(id) > 64 {
		return fmt.Errorf("serve: session id longer than 64 characters")
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("serve: session id %q: only [A-Za-z0-9._-] allowed", id)
		}
	}
	return nil
}

// whatIf answers one decoded what-if against this session: each
// scenario is answered from the result store when possible and
// executed under the server's execution lease otherwise. The counters
// commit as one transaction after the request completes, including
// the session's attribution of result-store traffic (hits, executed
// misses, and successful write-backs).
func (sess *Session) whatIf(srv *Server, scens []sweep.Scenario) *WhatIfResponse {
	rows := make([]sweep.RunResult, len(scens))
	putErrs := int64(0)
	var own *sweep.Runner // this request's, for traces no session holds
	for i, sc := range scens {
		runner := srv.runnerFor(sc, sess, &own)
		// The lease bounds concurrent executions across all in-flight
		// requests; cache hits pass through it quickly.
		srv.sem <- struct{}{}
		// Store write failures are non-fatal (the row is complete
		// either way) and surface in the cache-stats gauges.
		rows[i] = runner.CachedExec(sc, srv.store, func(error) { putErrs++ })
		<-srv.sem
	}
	resp := &WhatIfResponse{Session: sess.id, Slot: sess.Snapshot().Slot, Scenarios: len(rows), Rows: rows}
	for i := range rows {
		if rows[i].Cached {
			resp.CacheHits++
		} else {
			resp.Executed++
		}
	}

	sess.wmu.Lock()
	sess.wst.requests++
	sess.wst.scenarios += int64(resp.Scenarios)
	sess.wst.executed += int64(resp.Executed)
	sess.wst.cacheHits += int64(resp.CacheHits)
	if srv.store.Mode() == cache.ModeRW {
		sess.wst.writes += int64(resp.Executed) - putErrs
	}
	sess.wmu.Unlock()
	return resp
}

// serveFork answers {"fork": true}: clone the session's carried
// stepper state and drive ONLY the remaining window to the end of the
// horizon, under the execution lease. The clone is independent — the
// live session keeps stepping concurrently — and bit-exact: forked
// slot energies match a fresh windowed run over [Slot, Slots) with
// carried power-on state (the topology.Clone contract). A
// live-ingestion session has no replayable future (its remaining
// slots are unobserved), so forking it is a 409.
func (s *Server) serveFork(w http.ResponseWriter, sess *Session) {
	if sess.feed != nil {
		s.rejectWhatIf(sess, w, http.StatusConflict,
			"serve: a live-ingestion session cannot fork: its remaining slots are not observed yet")
		return
	}
	sess.mu.Lock()
	if sess.stepErr != nil {
		err := sess.stepErr
		sess.mu.Unlock()
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	fork := sess.cum.Slot
	slots := sess.cum.Slots
	clone, err := sess.stepper.Clone()
	sess.mu.Unlock()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	resp := &ForkResponse{Session: sess.id, Slot: fork, Slots: slots, Fork: true,
		SlotEnergyMJ: make([]float64, 0, slots-fork)}
	s.sem <- struct{}{}
	var res *topology.FleetResult
	var rest topology.Tally // the remaining window
	for err == nil && !clone.Done() {
		var step topology.SlotStep
		if step, err = clone.Step(); err != nil {
			break
		}
		resp.SlotEnergyMJ = append(resp.SlotEnergyMJ, step.EnergyMJ)
		rest.Add(&step.Charges)
	}
	if err == nil {
		res, err = clone.Result()
	}
	<-s.sem
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp.EnergyMJ, resp.Violations, resp.LatencyWeightedViol = rest.EnergyMJ, rest.Violations, rest.LatencyWeightedViol
	resp.Migrations, resp.CrossDCMigrations = rest.Migrations, rest.CrossDCMigrations
	resp.OperationalGCO2, resp.EmbodiedGCO2 = rest.OperationalGCO2, rest.EmbodiedGCO2
	resp.TotalEnergyMJ = res.TotalEnergyMJ
	resp.TotalViolations = res.Violations
	resp.EPScore = res.EPScore
	resp.TotalOperationalGCO2 = res.OperationalGCO2
	resp.TotalEmbodiedGCO2 = res.EmbodiedGCO2

	sess.wmu.Lock()
	sess.wst.requests++
	sess.wst.forks++
	sess.wmu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}
