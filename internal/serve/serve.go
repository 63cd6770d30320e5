// Package serve is the live fleet service behind ntc-serve: it hosts
// live scenario sessions, each replaying one sweep scenario slot by
// slot on the incremental fleet stepper (topology.Stepper), publishes
// every session's gauges on one OpenMetrics/Prometheus exposition
// page (a session label shards the series), answers what-if scenario
// deltas from the content-addressed result cache, ingests observed
// utilisation samples into live sessions, and forks a session's
// carried replay state to answer "what does the rest of THIS run look
// like" without re-simulating the past.
//
// Session model: New creates the default session from the base grid;
// POST /v1/sessions creates further sessions as axis deltas against
// that grid (same hermeticity gates as a what-if). Every session
// steps, scrapes, and answers what-ifs independently. The default
// session replays the base scenario itself, which is what Snapshot
// and Scenario report.
//
// Concurrency model: each session's stepping is serialised by its own
// mutex, and every step publishes an immutable Snapshot through an
// atomic pointer — a scrape reads one pointer per session, so it
// always sees a consistent slot (no torn reads, no locks on the read
// path). What-if counters commit under a per-session mutex as one
// transaction per request, so the exposition's whatif series always
// reconcile per session:
//
//	scenarios == executed + cache_hits
//
// See docs/SERVING.md for the endpoint and gauge reference.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dcsim"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/topology"
)

// DefaultMaxWhatIfScenarios bounds the axis product of one what-if
// request: the delta is a question, not a batch sweep, and the bound
// is enforced before expansion so a crafted request cannot balloon
// memory (mirroring the dist protocol's hermeticity gates).
const DefaultMaxWhatIfScenarios = 64

// DefaultMaxWhatIfVMs bounds the trace sizes a what-if may ask for.
const DefaultMaxWhatIfVMs = 2000

// DefaultWhatIfWorkers bounds concurrent scenario executions across
// all in-flight what-if requests (the "bounded in-process sweep").
const DefaultWhatIfWorkers = 2

// DefaultMaxSessions bounds live sessions per daemon, the default
// session included. Every session owns a full stepper (trace,
// predictions, per-DC simulations), so the bound is a memory guard.
const DefaultMaxSessions = 8

// DefaultSessionID is the session New creates from the base grid. It
// replays the base scenario that Snapshot and Scenario report, so it
// cannot be retired.
const DefaultSessionID = "default"

// Options configures a Server.
type Options struct {
	// Grid is the base scenario grid. It must expand to exactly one
	// scenario — the default session's live run — and it is the base
	// every what-if delta and session-create delta is applied to.
	Grid sweep.Grid

	// Cache, when non-nil, is the content-addressed result store
	// what-if scenarios are answered from (and executed misses are
	// persisted to). nil executes every what-if scenario.
	Cache *cache.Store

	// MaxWhatIfScenarios caps one request's axis product; <= 0 uses
	// DefaultMaxWhatIfScenarios.
	MaxWhatIfScenarios int

	// MaxWhatIfVMs caps the VM counts a what-if may sweep; <= 0 uses
	// DefaultMaxWhatIfVMs.
	MaxWhatIfVMs int

	// WhatIfWorkers caps concurrent scenario executions across all
	// what-if requests; <= 0 uses DefaultWhatIfWorkers.
	WhatIfWorkers int

	// MaxSessions caps live sessions (default session included);
	// <= 0 uses DefaultMaxSessions.
	MaxSessions int
}

// DCSnapshot is one datacenter's slice of a Snapshot.
type DCSnapshot struct {
	Name string

	// VMs is the DC's current VM count (the live epoch's dispatch).
	VMs int

	// Tally is the stepper's fold of the DC's completed slots: its
	// cumulative facility energy, violations, migrations and carbon
	// (gCO2eq: facility energy × grid intensity at each slot's hour of
	// day, and the amortized manufacturing carbon of its powered-on
	// servers).
	topology.Tally

	// SlotEnergyMJ is the DC's facility energy in the last completed
	// slot; PowerW is the same quantity as mean power over the slot
	// hour.
	SlotEnergyMJ float64
	PowerW       float64

	// ActiveServers is the powered-on count at the last slot.
	ActiveServers int
}

// Session lifecycle states, as reported by Snapshot.State and the
// status endpoints.
const (
	// StateReplaying: the session has replayable slots ahead.
	StateReplaying = "replaying"

	// StateAwaiting: a live-ingestion session whose next slot has not
	// been observed yet — stepping it is a 409, not progress.
	StateAwaiting = "awaiting_samples"

	// StateDone: the replay has finished; stepping is exhausted.
	StateDone = "done"

	// StateFailed: a simulation error poisoned the session.
	StateFailed = "failed"
)

// Snapshot is one consistent view of a session's live run: everything
// in it was computed at the same completed slot. Snapshots are
// immutable — the session publishes a fresh one per step through an
// atomic pointer and never writes to a published snapshot again.
type Snapshot struct {
	// Session is the owning session's id.
	Session string

	// Scenario is the live scenario being replayed.
	Scenario sweep.Scenario

	// Slot is how many slots have completed (0 before the first
	// step); Slots is the run's total. Slot is monotone — it is the
	// scrape-visible tick counter.
	Slot  int
	Slots int

	// Done reports whether the replay has finished.
	Done bool

	// State is the session lifecycle state (State* constants).
	State string

	// Ingest reports a live-ingestion session; Ingested is how many
	// evaluation slots have been observed so far (always 0 on replay
	// sessions).
	Ingest   bool
	Ingested int

	// Tally is the stepper's fold of the fleet's completed slots:
	// cumulative energy, violations, migrations and carbon, and the
	// realized energy proportionality of the slot energies so far
	// (Tally.EPScore). Each slot's energy is bit-exact with the batch
	// run's PerSlot series (the stepper property).
	topology.Tally

	// SlotEnergyMJ is the last completed slot's fleet energy.
	SlotEnergyMJ float64

	// ActiveServers is the fleet's powered-on count at the last slot.
	ActiveServers int

	// DCs is the per-datacenter breakdown, fleet spec order.
	DCs []DCSnapshot
}

// whatifStats are one session's what-if traffic counters. They are
// committed under one mutex as a single transaction per request,
// which is what makes scenarios == executed + cacheHits hold at every
// scrape. executed and cacheHits are also the session's result-store
// misses and hits; writes counts the executed rows the store kept.
type whatifStats struct {
	requests  int64
	rejected  int64
	scenarios int64
	executed  int64
	cacheHits int64
	writes    int64
	forks     int64
}

// Registry rejections; the HTTP layer maps them to status codes.
var (
	errSessionExists = errors.New("session id already exists")
	errSessionLimit  = errors.New("session limit reached")
	errNoSession     = errors.New("no such session")
)

// Server is the live fleet service: a registry of sessions sharing
// one result store, one what-if execution lease and one Runner for
// the base trace. Create with New; serve its Handler; advance
// sessions with Tick (or per-session steps).
type Server struct {
	opt    Options
	grid   sweep.Grid // defaulted base grid; the delta base
	scen   sweep.Scenario
	runner *sweep.Runner
	store  *cache.Store

	// sem leases what-if scenario executions and fork replays across
	// ALL sessions (bounded in-process sweep).
	sem chan struct{}

	smu      sync.Mutex
	sessions map[string]*Session
}

// New builds the service: expands the base grid (which must describe
// exactly one scenario), resolves its inputs through a sweep Runner —
// the identical config a batch sweep would execute — and creates the
// default session positioned before slot 0.
func New(opt Options) (*Server, error) {
	if opt.MaxWhatIfScenarios <= 0 {
		opt.MaxWhatIfScenarios = DefaultMaxWhatIfScenarios
	}
	if opt.MaxWhatIfVMs <= 0 {
		opt.MaxWhatIfVMs = DefaultMaxWhatIfVMs
	}
	if opt.WhatIfWorkers <= 0 {
		opt.WhatIfWorkers = DefaultWhatIfWorkers
	}
	if opt.MaxSessions <= 0 {
		opt.MaxSessions = DefaultMaxSessions
	}
	grid := opt.Grid.WithDefaults()
	scens, err := sweep.Expand(grid)
	if err != nil {
		return nil, err
	}
	if len(scens) != 1 {
		return nil, fmt.Errorf("serve: base grid expands to %d scenarios, want exactly 1 (the live run)", len(scens))
	}
	runner, err := sweep.NewRunner(grid)
	if err != nil {
		return nil, err
	}

	s := &Server{
		opt:      opt,
		grid:     grid,
		scen:     scens[0],
		runner:   runner,
		store:    opt.Cache,
		sem:      make(chan struct{}, opt.WhatIfWorkers),
		sessions: make(map[string]*Session),
	}
	if _, err := s.createSession(DefaultSessionID, false, scens[0]); err != nil {
		return nil, err
	}
	return s, nil
}

// Scenario returns the base scenario (the default session's replay).
func (s *Server) Scenario() sweep.Scenario { return s.scen }

// Snapshot returns the default session's published snapshot. It is
// immutable; callers must not modify it.
func (s *Server) Snapshot() *Snapshot { return s.defaultSession().Snapshot() }

// Tick advances every session by one slot: replay sessions step,
// ingestion sessions step only when their next slot has been
// observed (a gating refusal is not an error), finished sessions are
// no-ops. Every session is ticked even if one fails; the first
// simulation error is returned for logging.
func (s *Server) Tick() error {
	var first error
	for _, sess := range s.sessionList() {
		if _, _, _, err := sess.Step(1); err != nil && first == nil && !errors.Is(err, dcsim.ErrAwaitingSamples) {
			first = err
		}
	}
	return first
}

// createSession builds a session's stepper (outside the registry
// lock — input resolution can be expensive) and registers it. ingest
// sessions replay through a dcsim.LiveFeed and start gated on slot 0.
func (s *Server) createSession(id string, ingest bool, scen sweep.Scenario) (*Session, error) {
	var (
		cfg  topology.Config
		feed *dcsim.LiveFeed
		err  error
	)
	var own *sweep.Runner
	runner := s.runnerFor(scen, nil, &own)
	if ingest {
		cfg, feed, err = runner.LiveStepperConfig(scen)
	} else {
		cfg, err = runner.StepperConfig(scen)
	}
	if err != nil {
		return nil, err
	}
	st, err := topology.NewStepper(cfg)
	if err != nil {
		return nil, err
	}
	sess := newSession(id, scen, runner, st, feed)

	s.smu.Lock()
	defer s.smu.Unlock()
	if _, dup := s.sessions[id]; dup {
		return nil, fmt.Errorf("serve: session %q: %w", id, errSessionExists)
	}
	if len(s.sessions) >= s.opt.MaxSessions {
		return nil, fmt.Errorf("serve: %w (%d live)", errSessionLimit, len(s.sessions))
	}
	s.sessions[id] = sess
	return sess, nil
}

// runnerFor returns the Runner that resolves scen's inputs: the
// daemon's shared Runner for the base trace, sess's own Runner (sess
// may be nil) for that session's trace, and otherwise *own, made fresh
// on first use. A trace is its spec, seed, VM count, churn and
// history/eval days; the predictor is not part of it, so predictor
// deltas over one trace share that trace's Runner (the predictor
// registry bounds them). The caller drops *own when done, so a
// what-if over a new seed never pins its trace for the daemon's life.
func (s *Server) runnerFor(scen sweep.Scenario, sess *Session, own **sweep.Runner) *sweep.Runner {
	sameTrace := func(o sweep.Scenario) bool {
		return scen.TraceSpec == o.TraceSpec && scen.Seed == o.Seed && scen.VMs == o.VMs &&
			scen.ChurnFraction == o.ChurnFraction &&
			scen.HistoryDays == o.HistoryDays && scen.EvalDays == o.EvalDays
	}
	switch {
	case sameTrace(s.scen):
		return s.runner
	case sess != nil && sameTrace(sess.scen):
		return sess.runner
	case *own == nil:
		*own = s.runner.Fresh()
	}
	return *own
}

// deleteSession retires a session; the default session cannot be
// retired (see DefaultSessionID). In-flight requests holding the
// session keep working — a Session is self-contained — it just stops
// being addressable and scraped.
func (s *Server) deleteSession(id string) error {
	if id == DefaultSessionID {
		return fmt.Errorf("serve: the default session cannot be retired")
	}
	s.smu.Lock()
	defer s.smu.Unlock()
	if _, ok := s.sessions[id]; !ok {
		return fmt.Errorf("serve: session %q: %w", id, errNoSession)
	}
	delete(s.sessions, id)
	return nil
}

// session looks up a live session by id.
func (s *Server) session(id string) (*Session, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// defaultSession returns the default session (always registered —
// New fails otherwise, and it cannot be deleted).
func (s *Server) defaultSession() *Session {
	sess, _ := s.session(DefaultSessionID)
	return sess
}

// sessionList returns the live sessions sorted by id — the
// exposition's deterministic page order.
func (s *Server) sessionList() []*Session {
	s.smu.Lock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	s.smu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
