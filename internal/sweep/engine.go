package sweep

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/power"
	"repro/internal/sweep/cache"
	"repro/internal/topology"
)

// resultSchemaVersion salts every cache key. Bump it whenever the
// meaning of a RunResult row can change without the scenario identity
// changing — model constants, simulator semantics, the CSV/JSON
// field set — so stale stores invalidate wholesale instead of
// replaying rows the current code would not produce.
//
// v2: the topology axis added per-DC provenance (topology, dc_count,
// ep_score, per_dc columns) to every row.
//
// v3: the rebalance axis added the rebalance, cross_dc_migrations and
// latency_weighted_viol columns to every row (and the rebalance spec
// to the scenario identity).
//
// v4: the carbon layer added the power_model, operational_gco2 and
// embodied_gco2 columns to every row (and the power model to the
// scenario identity); resolved fleets carry grid-intensity and
// embodied-carbon fields into the per-DC provenance.
const resultSchemaVersion = "sweep-result-v4"

// Options tunes one sweep execution. The zero value runs on
// GOMAXPROCS workers with no progress reporting and no caching.
type Options struct {
	// Workers bounds the worker pool; <= 0 uses GOMAXPROCS. The
	// worker count affects wall-clock time only, never results.
	Workers int

	// Progress, when set, is called after each completed scenario
	// (serialised; completion order is nondeterministic but done/total
	// are monotonic). Cache hits report progress like executed runs.
	Progress func(done, total int, r *RunResult)

	// Cache, when non-nil, answers scenarios from the incremental
	// result store and persists freshly executed rows (per the
	// store's mode). Cached rows are byte-identical to executed ones;
	// only the in-memory Fleet field (the full fleet result) is nil on
	// a hit. Failed scenarios are never cached.
	Cache *cache.Store
}

// RunResult is one scenario's outcome. Fleet holds the full fleet
// result for adapters that need series; the flat fields are the
// machine-readable aggregates.
type RunResult struct {
	Scenario Scenario `json:"scenario"`

	// PredictorImpl is the resolved predictor's self-reported name
	// (e.g. "ARIMA(2,0,1)s288" for the "arima" axis value).
	PredictorImpl string `json:"predictor_impl,omitempty"`

	// ChurnAffectedVMs is how many VMs the churn pass touched.
	ChurnAffectedVMs int `json:"churn_affected_vms"`

	// Totals are the fleet aggregates (topology.Totals), in column
	// order. On multi-DC rows the energy columns are fleet facility
	// energies (IT × PUE).
	topology.Totals

	// PerDC carries per-datacenter provenance for multi-DC rows
	// (fleet spec order); empty on single-topology rows.
	PerDC []topology.DCRun `json:"per_dc,omitempty"`

	// Err is the scenario's failure, if any; other fields are zero.
	Err string `json:"error,omitempty"`

	// Cached reports whether this row came from the result store. It
	// is execution metadata, excluded from CSV/JSON like Workers.
	Cached bool `json:"-"`

	// Fleet is the full fleet result (nil on error and cache hits):
	// in memory only, for adapters that need the per-slot series. It
	// is not serialised; use the CSV/JSON aggregates for persistence.
	Fleet *topology.FleetResult `json:"-"`
}

// Results is a completed sweep.
type Results struct {
	// Grid is the (defaulted) grid that was run.
	Grid Grid `json:"grid"`

	// Runs are in expansion order — the deterministic output contract.
	Runs []RunResult `json:"runs"`

	// Everything below describes the execution, not the results. It
	// is excluded from CSV/JSON so outputs stay byte-identical across
	// worker counts and cache states (the incremental-cache
	// acceptance contract); the Summary reports it instead.

	// Load reports input sharing across the sweep.
	Load LoadStats `json:"-"`

	// Cache reports result-store traffic (zero without a store).
	Cache cache.Stats `json:"-"`

	// CacheErr is the first failure to persist a row, if any. Results
	// are complete regardless; surface it as a warning.
	CacheErr error `json:"-"`

	Workers int           `json:"-"`
	Elapsed time.Duration `json:"-"`
}

// Failed returns the first scenario error, or nil.
func (r *Results) Failed() error {
	for i := range r.Runs {
		if r.Runs[i].Err != "" {
			return fmt.Errorf("sweep: scenario %s: %s", r.Runs[i].Scenario.ID(), r.Runs[i].Err)
		}
	}
	return nil
}

// Run expands the grid and executes every scenario on a bounded
// worker pool. Scenario failures are recorded per run (see
// Results.Failed); Run itself fails only on an invalid grid.
//
// Every worker executes rows through one Runner, so rows share its
// memoized inputs and its allocation memo (see memo.go): a policy call
// any row already made is answered from the memo. A worker with no row
// left allocates ahead for the rows still running (lookahead.go) until
// the last row ends; no worker outlives Run. Rows are stored by
// expansion index and are byte-identical to Runner.Exec's.
func Run(g Grid, opt Options) (*Results, error) {
	g = g.WithDefaults()
	scens, err := Expand(g)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	start := time.Now()
	rn, err := NewRunner(g)
	if err != nil {
		return nil, err
	}
	runs := make([]RunResult, len(scens))

	var (
		wg       sync.WaitGroup
		rows     sync.WaitGroup
		progMu   sync.Mutex
		done     int
		cacheErr error
		idx      = make(chan int)
	)
	rows.Add(len(scens))
	onPutErr := func(err error) {
		progMu.Lock()
		if cacheErr == nil {
			cacheErr = err
		}
		progMu.Unlock()
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runs[i] = rn.CachedExec(scens[i], opt.Cache, onPutErr)
				if opt.Progress != nil {
					progMu.Lock()
					done++
					opt.Progress(done, len(scens), &runs[i])
					progMu.Unlock()
				}
				rows.Done()
			}
			rn.memo.help()
		}()
	}
	for i := range scens {
		idx <- i
	}
	close(idx)
	rows.Wait()
	rn.memo.stopAhead()
	wg.Wait()

	return &Results{
		Grid:     g,
		Runs:     runs,
		Load:     rn.LoadStats(),
		Cache:    opt.Cache.Stats(),
		CacheErr: cacheErr,
		Workers:  workers,
		Elapsed:  time.Since(start),
	}, nil
}

// scenarioCacheKey addresses one scenario's result row: the scenario
// identity, the trace source's content fingerprint (so edited trace
// files re-execute), the topology fingerprint (so edited fleet files
// re-execute), the resolved transition model (custom models live in
// the grid, not the scenario name), and the result schema version.
// ok=false means the scenario is uncacheable right now (e.g. an
// unreadable trace or fleet file); it then executes normally and
// fails with the canonical ingestion error.
func scenarioCacheKey(ld *loader, g Grid, s Scenario) (string, bool) {
	return scenarioCacheKeyVersioned(ld, g, s, resultSchemaVersion)
}

// scenarioCacheKeyVersioned is scenarioCacheKey with an explicit
// schema version, split out so tests can prove that rows stored under
// a stale version are ignored.
func scenarioCacheKeyVersioned(ld *loader, g Grid, s Scenario, version string) (string, bool) {
	in, err := ld.source(s.TraceSpec)
	if err != nil {
		return "", false
	}
	fp, err := in.fp()
	if err != nil {
		return "", false
	}
	topo, err := ld.topology(s.Topology)
	if err != nil {
		return "", false
	}
	topoFP, err := topo.fp()
	if err != nil {
		return "", false
	}
	tm, err := g.transitionFor(s.Transitions)
	if err != nil {
		return "", false
	}
	tj, err := json.Marshal(tm)
	if err != nil {
		return "", false
	}
	return cache.Key(version, s.ID(), fp, topoFP, string(tj)), true
}

// CachedExec answers the scenario from the result store when it can,
// executing and persisting it otherwise (see Options.Cache). onPutErr,
// when non-nil, receives store write failures; results stay complete.
func (r *Runner) CachedExec(s Scenario, store *cache.Store, onPutErr func(error)) RunResult {
	key := ""
	if store != nil {
		if k, ok := r.CacheKey(s); ok {
			// A row that does not decode back to this scenario is
			// treated as corrupt and re-executed (the store has
			// already counted the hit; correctness beats stats).
			if row, found := store.Get(k); found {
				if res, ok := DecodeCachedRow(row, s); ok {
					return res
				}
			}
			key = k
		}
	}
	res := r.Exec(s)
	cachePut(store, key, res, onPutErr)
	return res
}

// cachePut persists an executed row under key; failed rows and empty
// keys are never stored.
func cachePut(store *cache.Store, key string, r RunResult, onPutErr func(error)) {
	if key == "" || r.Err != "" {
		return
	}
	row, err := json.Marshal(r)
	if err == nil {
		err = store.Put(key, row)
	}
	if err != nil {
		onPutErr(fmt.Errorf("sweep: caching %s: %w", r.Scenario.ID(), err))
	}
}

// fleetConfig resolves one scenario's shared inputs through the
// loader and assembles the topology.Config it runs, plus the churn
// pass's affected-VM count (execution provenance the config cannot
// carry). It is the shared front half of Exec and of the live
// service's incremental path (Runner.StepperConfig): both must build
// the identical config, or stepping a scenario would diverge from
// sweeping it. Its policy factory answers through the Runner's
// allocation memo; row, when non-nil, collects the lookahead windows
// the policies' steppers offer.
func (r *Runner) fleetConfig(s Scenario, row *aheadRow) (topology.Config, int, error) {
	ld, g := r.ld, r.grid
	tk := traceKey{
		spec:      s.TraceSpec,
		seed:      s.Seed,
		vms:       s.VMs,
		days:      s.HistoryDays + s.EvalDays,
		churnFrac: s.ChurnFraction,
	}
	in, err := ld.source(s.TraceSpec)
	if err != nil {
		return topology.Config{}, 0, err
	}
	// File-backed traces ignore the seed unless churn consumes it
	// (seed+99): normalising the memo key lets a multi-seed grid
	// share one ingestion and one prediction set per file.
	if s.ChurnFraction == 0 && in.src.IsFile() {
		tk.seed = 0
	}
	tp, err := ld.trace(tk, in.src)
	if err != nil {
		return topology.Config{}, 0, err
	}
	ps, err := ld.predictions(predKey{
		tk:          tk,
		predictor:   s.Predictor,
		historyDays: s.HistoryDays,
		evalDays:    s.EvalDays,
	}, tp.tr)
	if err != nil {
		return topology.Config{}, 0, err
	}

	topo, err := ld.topology(s.Topology)
	if err != nil {
		return topology.Config{}, 0, err
	}
	fleet, err := topo.fleet()
	if err != nil {
		return topology.Config{}, 0, err
	}
	reb, err := topology.ParseRebalanceSpec(s.Rebalance)
	if err != nil {
		return topology.Config{}, 0, fmt.Errorf("sweep: %w", err)
	}
	transitions, err := g.transitionFor(s.Transitions)
	if err != nil {
		return topology.Config{}, 0, err
	}

	var keys keyPrefixes
	return topology.Config{
		Fleet:        fleet,
		Trace:        tp.tr,
		Predictions:  ps,
		HistoryDays:  s.HistoryDays,
		EvalDays:     s.EvalDays,
		MaxServers:   s.MaxServers,
		StaticPowerW: s.StaticPowerW,
		PowerModel:   s.PowerModel,
		NewPolicy: func(m power.Model) (alloc.Policy, error) {
			pol, err := newPolicy(s.Policy, m)
			if err != nil {
				return nil, err
			}
			return r.memo.wrap(s.Policy, m, pol, row, &keys), nil
		},
		Transitions: transitions,
		Rebalance:   reb,
	}, tp.affected, nil
}

// Exec runs one scenario. Failures are recorded in the row's Err
// field, never returned — the sweep contract is one row per scenario.
// All shared inputs come from the loader (published read-only);
// everything mutable — policy, server model, platform — is built
// fresh here, which is what makes concurrent scenarios independent.
func (r *Runner) Exec(s Scenario) RunResult {
	out := RunResult{Scenario: s}
	fail := func(err error) RunResult {
		out.Err = err.Error()
		return out
	}

	var row *aheadRow
	if r.memo != nil {
		row = &aheadRow{}
		defer r.memo.endRow(row)
	}
	cfg, affected, err := r.fleetConfig(s, row)
	if err != nil {
		return fail(err)
	}

	// Every scenario runs through the fleet runner; the default
	// "single" topology is the identity (one DC, PUE 1, the whole
	// pool), so its rows match the plain simulation bit-for-bit —
	// under any rebalance spec, since one DC has nothing to rebalance.
	fres, err := topology.Run(cfg)
	if err != nil {
		return fail(err)
	}

	out.PredictorImpl = cfg.Predictions.Predictor
	out.ChurnAffectedVMs = affected
	out.Totals = fres.Totals
	out.Fleet = fres
	if len(fres.DCs) > 1 {
		// Multi-DC provenance: which datacenter contributed what.
		out.PerDC = fres.DCs
	}
	return out
}
