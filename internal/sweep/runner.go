package sweep

import (
	"repro/internal/dcsim"
	"repro/internal/jsonx"
	"repro/internal/topology"
)

// Runner is the per-process execution core of the sweep engine: it
// executes individual scenarios of one validated grid with shared
// memoized input loading (traces, prediction sets, fleet definitions).
// Both the in-process worker pool (Run) and the distributed workers
// (internal/sweep/dist) drive a Runner; the only difference between
// the two is who hands it scenarios.
//
// A Runner is safe for concurrent use: the loader serialises input
// builds per key and publishes them read-only, every Exec builds its
// mutable state (policy, server model, platform) fresh, and the
// allocation memo hands each caller its own Assignment.
type Runner struct {
	grid Grid
	ld   *loader

	// memo answers repeated policy calls (see memo.go); nil (tests
	// only) runs every call.
	memo *allocMemo
}

// NewRunner validates the grid (after defaulting) and returns a
// Runner for it. The grid must be the same one scenarios were
// expanded from: custom transition models are resolved against it.
//
// The Runner's allocation memo takes the windows its Exec rows offer,
// so a call that waits on another's allocation computes later slots
// meanwhile (see lookahead.go). Steppers built from StepperConfig or
// LiveStepperConfig offer none, so a Runner that outlives its rows,
// as a daemon's does, holds no window between them.
func NewRunner(g Grid) (*Runner, error) {
	g = g.WithDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return (&Runner{grid: g}).Fresh(), nil
}

// Fresh returns a Runner over r's grid that shares no input with r:
// its own loader and allocation memo. Whatever it resolves lives only
// as long as its holder keeps it.
func (r *Runner) Fresh() *Runner {
	return &Runner{grid: r.grid, ld: &loader{}, memo: newAllocMemo(memoBudget)}
}

// SetBlobSource wires a remote fallback for file-backed inputs this
// process cannot read (see BlobSource). Call it before the first Exec
// or CacheKey — input resolution is memoized, so a source wired later
// would miss specs that already resolved (and failed) locally.
func (r *Runner) SetBlobSource(b BlobSource) { r.ld.blobs = b }

// StepperConfig resolves one scenario into the topology.Config it
// executes — shared inputs (trace, predictions, fleet) through the
// Runner's memoized loader, the transition model against the Runner's
// grid — without running it. A live service hands the config to
// topology.NewStepper to advance the scenario slot by slot; it is the
// exact config Exec would run, so the stepped series concatenates
// bit-for-bit to the sweep row's aggregates.
func (r *Runner) StepperConfig(s Scenario) (topology.Config, error) {
	cfg, _, err := r.fleetConfig(s, nil)
	return cfg, err
}

// LiveStepperConfig resolves one scenario into a live-ingestion
// stepper config: the same inputs StepperConfig resolves, except the
// trace's evaluation region and the prediction set are owned by the
// returned dcsim.LiveFeed — the scenario's trace supplies the history
// window and the VM population, observed samples arrive through
// LiveFeed.Observe, and the config's Source gates the stepper so it
// can never outrun ingestion. The feed keeps predictions bit-exact
// with what a batch run over the fully ingested trace would compute.
func (r *Runner) LiveStepperConfig(s Scenario) (topology.Config, *dcsim.LiveFeed, error) {
	cfg, _, err := r.fleetConfig(s, nil)
	if err != nil {
		return topology.Config{}, nil, err
	}
	pred, err := newPredictor(s.Predictor)
	if err != nil {
		return topology.Config{}, nil, err
	}
	feed, err := dcsim.NewLiveFeed(cfg.Trace, pred, s.HistoryDays, s.EvalDays)
	if err != nil {
		return topology.Config{}, nil, err
	}
	cfg.Trace = feed.Trace()
	cfg.Predictions = feed.Predictions()
	cfg.Source = feed
	return cfg, feed, nil
}

// CacheKey returns the content-addressed result-store key for s:
// scenario identity + trace/topology content fingerprints + resolved
// transition model + result schema version. ok=false means the
// scenario is uncacheable right now (e.g. an unreadable trace or
// fleet file); it then executes normally and fails with the canonical
// ingestion error.
func (r *Runner) CacheKey(s Scenario) (string, bool) {
	return scenarioCacheKey(r.ld, r.grid, s)
}

// CacheKeyForVersion is CacheKey under an arbitrary result schema
// version: the address rows written by OTHER releases live at. Cache
// inspection tooling and the stale-schema upgrade tests use it to
// plant or locate rows the current version must never answer from.
func (r *Runner) CacheKeyForVersion(s Scenario, version string) (string, bool) {
	return scenarioCacheKeyVersioned(r.ld, r.grid, s, version)
}

// LoadStats snapshots the Runner's input-sharing counters.
func (r *Runner) LoadStats() LoadStats {
	st := r.ld.stats()
	if r.memo != nil {
		st.SharedPlacements = r.memo.hits.Load()
		st.LookaheadComputed = r.memo.aheadComputed.Load()
		st.LookaheadUsed = r.memo.aheadUsed.Load()
	}
	return st
}

// DecodeCachedRow decodes a stored result row and validates it
// against the scenario it is supposed to answer. ok=false means the
// row is corrupt (malformed, an unknown field, trailing bytes),
// records a failure, or belongs to a different scenario — the caller
// must re-execute (correctness beats cache stats). On ok the row is
// marked Cached.
func DecodeCachedRow(row []byte, s Scenario) (RunResult, bool) {
	var r RunResult
	if _, err := jsonx.DecodeStrict(row, &r); err != nil || r.Scenario != s || r.Err != "" {
		return RunResult{}, false
	}
	r.Cached = true
	return r, true
}
