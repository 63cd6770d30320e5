// Package dist distributes a scenario sweep across worker processes:
// a coordinator partitions the grid into per-scenario work units,
// workers lease units, execute them through the engine's Runner, and
// return rows; the coordinator merges them back into expansion order,
// so the emitted CSV/JSON is byte-identical to the single-process
// engine whatever the worker count, batch size, or interleaving.
//
// The content-addressed result store (internal/sweep/cache) is the
// dedup layer: the coordinator answers units from the store before
// leasing anything (a warm cluster run executes zero scenarios) and
// writes freshly returned rows back, so the next run — distributed or
// not — reuses them.
//
// Crashed workers are handled by lease expiry: a unit not completed
// within the lease TTL goes back into the queue and is re-leased to
// the next worker that asks. Because every row is a deterministic
// function of its scenario, a late result from a presumed-dead worker
// is indistinguishable from the retry's and is accepted whichever
// arrives first; the loser is counted, not erred.
//
// Two transports exist: the Coordinator itself is the in-process
// Backend (used by tests and `ntc-sweep -dist local:N`), and
// NewHandler/NewClient expose the same three calls over HTTP/JSON for
// real multi-machine runs (`ntc-sweep -serve` / `-worker`). See
// docs/DISTRIBUTED.md.
package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/sweep"
	"repro/internal/sweep/cache"
)

// Unit is one leased scenario: the work item of the protocol.
type Unit struct {
	// Seq is the scenario's grid-expansion index — the deterministic
	// merge position of its row.
	Seq int `json:"seq"`

	// Scenario is the fully concrete grid point to execute.
	Scenario sweep.Scenario `json:"scenario"`

	// Lease identifies this grant; Complete echoes it back so the
	// coordinator can tell a retry's result from a stale one.
	Lease int64 `json:"lease"`
}

// UnitResult returns one executed unit's row.
type UnitResult struct {
	Seq   int             `json:"seq"`
	Lease int64           `json:"lease"`
	Row   sweep.RunResult `json:"row"`

	// Key is the worker's own computation of the scenario's cache key
	// (sweep.Runner.CacheKey): scenario identity + the *worker's*
	// trace/topology content fingerprints + schema version. The
	// coordinator compares it against its own key before accepting a
	// row, so a worker whose copy of a file-backed input diverged
	// (same path, different content) fails loudly instead of
	// poisoning the shared cache. Empty means the worker could not
	// fingerprint the inputs (the row then records the failure).
	Key string `json:"key,omitempty"`
}

// LeaseReply answers one lease request. Empty Units with Done false
// means everything is currently leased elsewhere — poll again; Done
// true means the sweep is complete and the worker can exit.
type LeaseReply struct {
	Units []Unit `json:"units,omitempty"`
	Done  bool   `json:"done"`

	// TTL is the coordinator's lease window, so workers know how
	// often to renew while executing a slow batch (see Renew).
	TTL time.Duration `json:"ttl,omitempty"`
}

// UnitRef names one held lease (a Renew argument).
type UnitRef struct {
	Seq   int   `json:"seq"`
	Lease int64 `json:"lease"`
}

// Backend is the worker-side view of a coordinator: the calls of the
// protocol. The Coordinator implements it directly (the in-process
// transport); Client implements it over HTTP/JSON.
type Backend interface {
	// Grid returns the defaulted grid the sweep executes, so workers
	// build an identical Runner (custom transition models included).
	Grid(ctx context.Context) (sweep.Grid, error)

	// Lease grants up to max units to the named worker.
	Lease(ctx context.Context, worker string, max int) (LeaseReply, error)

	// Renew extends the named worker's live leases so a
	// slower-than-TTL scenario is not presumed crashed. Stale or
	// completed refs are silently skipped — renewal is best-effort.
	Renew(ctx context.Context, worker string, refs []UnitRef) error

	// Complete returns executed rows plus the worker's input-loading
	// stats for the batch (merged into the sweep summary).
	Complete(ctx context.Context, worker string, results []UnitResult, load sweep.LoadStats) error

	// Release hands unexecuted leases back (a draining worker leaving
	// mid-batch), so they re-lease immediately instead of after TTL
	// expiry. Best-effort like Renew: stale refs are skipped.
	Release(ctx context.Context, worker string, refs []UnitRef) error

	// Blob ships one file-backed input (kind sweep.BlobTrace or
	// sweep.BlobTopology) to a worker that cannot read the spec's path
	// itself; see blobstore.go.
	Blob(ctx context.Context, kind, spec string) (BlobReply, error)
}

// Options tunes a coordinator.
type Options struct {
	// Cache, when non-nil, is the dedup/result layer: units with a
	// stored row are answered before any worker sees them, and
	// freshly returned rows are written back (per the store's mode).
	Cache *cache.Store

	// LeaseTTL is how long a leased unit may stay incomplete before
	// it is re-leased to another worker; <= 0 means one minute.
	LeaseTTL time.Duration

	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time

	// Progress, when set, is called (serialised) after each completed
	// unit, including the cache hits claimed at construction.
	Progress func(done, total int)

	// CheckpointDir, when non-empty, journals the coordinator's state
	// there on every Complete (atomic rename), so a killed coordinator
	// resumes mid-grid via LoadCheckpoint/Resume with zero re-executed
	// warm units. See checkpoint.go.
	CheckpointDir string

	// DisableBlobs skips the input-shipping snapshot: workers must
	// then read every file-backed input from their own filesystem.
	// Useful when the grid references huge trace files on a shared
	// mount that should not be duplicated into coordinator memory.
	DisableBlobs bool
}

// Stats describes one distributed sweep's traffic.
type Stats struct {
	// Units is the total scenario count of the grid.
	Units int `json:"units"`

	// CacheHits is how many units the coordinator answered from the
	// result store without leasing them to any worker.
	CacheHits int `json:"cache_hits"`

	// Leases counts lease grants, re-leases after expiry included.
	Leases int64 `json:"leases"`

	// Expired counts leases reclaimed after their TTL (the
	// crashed-worker retry path).
	Expired int64 `json:"expired"`

	// Stale counts accepted results whose lease had already been
	// superseded (a presumed-dead worker finishing after all — its
	// row is identical by the determinism contract, so it is kept).
	Stale int64 `json:"stale"`

	// Duplicates counts results for units another worker had already
	// completed; they are ignored.
	Duplicates int64 `json:"duplicates"`

	// Renewals counts lease extensions granted to live workers
	// executing slower than the TTL.
	Renewals int64 `json:"renewals"`

	// Released counts leases handed back by draining workers (the
	// graceful half of worker churn; Expired is the crashed half).
	Released int64 `json:"released"`

	// Resumed counts units restored as done from a checkpoint journal
	// at construction — completed work the resumed sweep never
	// re-leases or re-executes.
	Resumed int `json:"resumed"`

	// Blobs counts input blobs shipped to workers without filesystem
	// access to the grid's trace/fleet paths.
	Blobs int64 `json:"blobs"`

	// Workers is how many distinct worker names checked in.
	Workers int `json:"workers"`
}

const (
	unitPending = iota
	unitLeased
	unitDone
)

type unit struct {
	scenario sweep.Scenario
	state    int
	lease    int64
	deadline time.Time
	key      string // result-store key; "" = uncacheable
	row      sweep.RunResult
	rowJSON  json.RawMessage // row's canonical marshalling, for the journal
}

// Coordinator owns one distributed sweep: the unit table, the lease
// clock, and the merged results. It is safe for concurrent use by any
// number of transports and workers.
type Coordinator struct {
	grid  sweep.Grid
	opt   Options
	start time.Time
	blobs blobStore // input-shipping snapshot; nil when disabled

	mu       sync.Mutex
	units    []unit
	pending  int // units not yet done
	leaseID  int64
	workers  map[string]bool
	stats    Stats
	load     sweep.LoadStats
	cacheErr error
	ckptErr  error
	closed   bool
	done     chan struct{}
}

// NewCoordinator expands the grid, claims every unit the result store
// can already answer, and queues the rest for leasing. A fully warm
// coordinator is complete before any worker connects.
func NewCoordinator(g sweep.Grid, opt Options) (*Coordinator, error) {
	return newCoordinator(g.WithDefaults(), opt, nil)
}

// newCoordinator builds a coordinator for an already-defaulted grid,
// optionally restoring completed rows and live leases from a loaded
// checkpoint (see Resume).
func newCoordinator(g sweep.Grid, opt Options, ck *Checkpoint) (*Coordinator, error) {
	scens, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	// The runner is used for cache keys only (fingerprints, resolved
	// transition models); the coordinator never executes scenarios.
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return nil, err
	}
	if opt.LeaseTTL <= 0 {
		opt.LeaseTTL = time.Minute
	}
	if opt.Clock == nil {
		opt.Clock = time.Now
	}

	c := &Coordinator{
		grid:    g,
		opt:     opt,
		start:   time.Now(),
		units:   make([]unit, len(scens)),
		workers: map[string]bool{},
		done:    make(chan struct{}),
	}
	if !opt.DisableBlobs {
		// Snapshot file-backed inputs now: workers without filesystem
		// access fetch these exact bytes, and the fingerprints below
		// hash this same content, so one sweep can never straddle two
		// versions of a file.
		c.blobs = newBlobStore(g)
	}
	c.stats.Units = len(scens)
	for i, s := range scens {
		u := &c.units[i]
		u.scenario = s
		// The key is computed even without a store: it doubles as the
		// coordinator's input fingerprint for the divergence guard in
		// Complete (fingerprints are memoized across scenarios).
		if k, ok := rn.CacheKey(s); ok {
			u.key = k
		}
	}
	if ck != nil {
		// Journaled rows were accepted by the killed coordinator; they
		// are done, never re-leased. The key guard refuses a journal
		// whose file-backed inputs changed since it was written —
		// resuming would mix rows from two input versions.
		for i, row := range ck.rows {
			u := &c.units[row.Seq]
			if row.Key != "" && u.key != row.Key {
				return nil, fmt.Errorf("dist: resuming unit %d (%s): inputs changed since the checkpoint was written (journal key %q, current %q) — the journal cannot be resumed against different trace/fleet content",
					row.Seq, u.scenario.ID(), row.Key, u.key)
			}
			u.row = ck.decoded[i]
			u.rowJSON = row.Row
			u.state = unitDone
			c.stats.Resumed++
		}
		// Live leases survive the restart so a worker that outlived
		// the coordinator can still land (or renew) its batch; a dead
		// worker's leases expire on their original deadlines.
		for _, ls := range ck.leases {
			u := &c.units[ls.Seq]
			u.state = unitLeased
			u.lease = ls.Lease
			u.deadline = ls.Deadline
		}
		c.leaseID = ck.leaseID
	}
	for i := range c.units {
		u := &c.units[i]
		if u.state == unitDone {
			continue
		}
		if u.key != "" && opt.Cache != nil {
			if row, hit := opt.Cache.Get(u.key); hit {
				if r, ok := sweep.DecodeCachedRow(row, u.scenario); ok {
					u.row = r
					u.rowJSON = row
					u.state = unitDone
					c.stats.CacheHits++
					continue
				}
			}
		}
		c.pending++
	}
	restored := len(c.units) - c.pending
	if opt.Progress != nil && restored > 0 {
		opt.Progress(restored, len(c.units))
	}
	if opt.CheckpointDir != "" {
		if err := os.MkdirAll(opt.CheckpointDir, 0o755); err != nil {
			return nil, fmt.Errorf("dist: checkpoint dir: %w", err)
		}
		// The initial journal write makes misconfiguration (read-only
		// dir, full disk) a construction error instead of a mid-sweep
		// surprise, and records grids that complete without a single
		// Complete call (fully warm or resumed-complete runs).
		c.checkpointLocked()
		if c.ckptErr != nil {
			return nil, c.ckptErr
		}
	}
	if c.pending == 0 {
		c.closed = true
		close(c.done)
	}
	return c, nil
}

// Grid implements Backend.
func (c *Coordinator) Grid(context.Context) (sweep.Grid, error) { return c.grid, nil }

// Lease implements Backend: it grants up to max units — pending ones
// first-come, plus any whose lease expired (their previous worker is
// presumed crashed and they are re-leased). The grant is also capped
// at a fair share of the leasable units: ⌈leasable ÷ workers⌉, where
// workers counts those that have received work, the asker included.
// Early grants are unaffected, but the tail of a sweep spreads over
// the workers instead of queueing behind one worker's batch.
func (c *Coordinator) Lease(_ context.Context, worker string, max int) (LeaseReply, error) {
	if max <= 0 {
		max = 1
	}
	now := c.opt.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()

	leasable := 0
	for i := range c.units {
		u := &c.units[i]
		if u.state == unitPending || u.state == unitLeased && !now.Before(u.deadline) {
			leasable++
		}
	}
	workers := len(c.workers)
	if !c.workers[worker] {
		workers++
	}
	if share := (leasable + workers - 1) / workers; max > share {
		max = share
	}

	var out []Unit
	for i := range c.units {
		if len(out) >= max {
			break
		}
		u := &c.units[i]
		switch u.state {
		case unitDone:
			continue
		case unitLeased:
			if now.Before(u.deadline) {
				continue
			}
			c.stats.Expired++
		}
		c.leaseID++
		u.state = unitLeased
		u.lease = c.leaseID
		u.deadline = now.Add(c.opt.LeaseTTL)
		c.stats.Leases++
		out = append(out, Unit{Seq: i, Scenario: u.scenario, Lease: u.lease})
	}
	// Only workers that actually receive work (or return results)
	// count: a fully warm sweep reports zero workers however many
	// polled once and left.
	if len(out) > 0 {
		c.workers[worker] = true
	}
	return LeaseReply{Units: out, Done: c.pending == 0, TTL: c.opt.LeaseTTL}, nil
}

// Renew implements Backend: it pushes the deadline of every ref the
// worker still validly holds out by another TTL. Refs whose lease was
// superseded or whose unit completed are skipped, not errors — the
// worker finds out the normal way (its Complete counts as stale or
// duplicate).
func (c *Coordinator) Renew(_ context.Context, worker string, refs []UnitRef) error {
	now := c.opt.Clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range refs {
		if r.Seq < 0 || r.Seq >= len(c.units) {
			continue
		}
		u := &c.units[r.Seq]
		if u.state == unitLeased && u.lease == r.Lease {
			u.deadline = now.Add(c.opt.LeaseTTL)
			c.stats.Renewals++
		}
	}
	return nil
}

// Release implements Backend: a draining worker hands its unexecuted
// leases back so they re-lease immediately instead of idling out the
// TTL. Refs the worker no longer validly holds are skipped — by the
// time a drain lands, the unit may have expired and gone elsewhere.
func (c *Coordinator) Release(_ context.Context, worker string, refs []UnitRef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range refs {
		if r.Seq < 0 || r.Seq >= len(c.units) {
			continue
		}
		u := &c.units[r.Seq]
		if u.state == unitLeased && u.lease == r.Lease {
			u.state = unitPending
			u.lease = 0
			c.stats.Released++
		}
	}
	return nil
}

// Complete implements Backend: it merges returned rows by expansion
// index and writes them through to the result store. Results for
// already-completed units are ignored (duplicates from lease retries);
// a result whose row does not match the unit's scenario is a protocol
// error — some worker executed the wrong thing.
func (c *Coordinator) Complete(_ context.Context, worker string, results []UnitResult, load sweep.LoadStats) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = true

	// The completion bookkeeping is deferred so an invalid result
	// later in a batch can never strand the sweep: rows accepted
	// before the error still count, and if one of them was the last
	// pending unit, done closes regardless of the return path.
	fresh := 0
	defer func() {
		if fresh > 0 {
			c.load.TraceRequests += load.TraceRequests
			c.load.TraceBuilds += load.TraceBuilds
			c.load.PredictRequests += load.PredictRequests
			c.load.PredictBuilds += load.PredictBuilds
			c.load.SharedPlacements += load.SharedPlacements
			c.load.LookaheadComputed += load.LookaheadComputed
			c.load.LookaheadUsed += load.LookaheadUsed
			// The journal is rewritten on every Complete that landed a
			// row — including batches that then hit an invalid result —
			// so a kill at any instant loses at most the in-flight call.
			c.checkpointLocked()
		}
		if c.pending == 0 && !c.closed {
			c.closed = true
			close(c.done)
		}
	}()

	for _, r := range results {
		if r.Seq < 0 || r.Seq >= len(c.units) {
			return fmt.Errorf("dist: result for unknown unit %d (grid has %d)", r.Seq, len(c.units))
		}
		u := &c.units[r.Seq]
		// Duplicates are checked first: a late result for a unit
		// another worker already completed is counted, never erred —
		// whatever it carries, it cannot corrupt anything.
		if u.state == unitDone {
			c.stats.Duplicates++
			continue
		}
		if r.Row.Scenario != u.scenario {
			return fmt.Errorf("dist: unit %d: result is for scenario %q, leased %q",
				r.Seq, r.Row.Scenario.ID(), u.scenario.ID())
		}
		// Input-divergence guard: if both sides fingerprinted the
		// scenario's inputs and disagree, the worker executed against
		// different file contents (a stale trace/fleet file on its
		// machine). Accepting the row would poison the shared cache
		// and break byte determinism silently — reject it loudly.
		if u.key != "" && r.Key != "" && r.Key != u.key {
			return fmt.Errorf("dist: unit %d (%s): worker %q executed against divergent inputs (its content fingerprints differ from the coordinator's — check for stale trace/fleet files)",
				r.Seq, u.scenario.ID(), worker)
		}
		// Same idea for a worker that could not fingerprint inputs the
		// coordinator can read: its error row is an artifact of that
		// machine (a missing file), not the scenario's canonical
		// result. Reject it so the unit is retried elsewhere after
		// the lease expires; a row that somehow succeeded is accepted
		// (nothing to verify, nothing wrong with it).
		if u.key != "" && r.Key == "" && r.Row.Err != "" {
			return fmt.Errorf("dist: unit %d (%s): worker %q failed to ingest inputs the coordinator can read (%s) — check the worker's file paths",
				r.Seq, u.scenario.ID(), worker, r.Row.Err)
		}
		if r.Lease != u.lease {
			c.stats.Stale++
		}
		u.row = r.Row
		u.row.Cached = false
		u.rowJSON = nil
		u.state = unitDone
		c.pending--
		fresh++
		if u.key != "" && u.row.Err == "" && c.opt.Cache != nil {
			// Write-back mirrors the engine's persistence byte-for-byte
			// (same struct, same marshalling), so single-process and
			// distributed runs share one store.
			data, err := json.Marshal(u.row)
			if err == nil {
				u.rowJSON = data // the journal reuses the same bytes
				err = c.opt.Cache.Put(u.key, data)
			}
			if err != nil && c.cacheErr == nil {
				c.cacheErr = fmt.Errorf("dist: caching %s: %w", u.scenario.ID(), err)
			}
		}
		if c.opt.Progress != nil {
			c.opt.Progress(len(c.units)-c.pending, len(c.units))
		}
	}
	// Load stats merge only when the batch contributed something new
	// (see the deferred bookkeeping): a transport-level retry of an
	// already-processed Complete must not double-count the summary's
	// loader traffic — Complete stays idempotent.
	return nil
}

// Done is closed when every unit has a row.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Wait blocks until the sweep completes (or ctx is canceled) and
// returns the merged results: rows in expansion order, worker load
// stats and cache traffic folded into the summary fields.
func (c *Coordinator) Wait(ctx context.Context) (*sweep.Results, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-c.done:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ckptErr != nil {
		// Checkpointing was asked for; a journal that silently stopped
		// updating would betray the next -resume, so the failure is
		// loud even though the rows themselves are fine.
		return nil, c.ckptErr
	}
	runs := make([]sweep.RunResult, len(c.units))
	for i := range c.units {
		runs[i] = c.units[i].row
	}
	return &sweep.Results{
		Grid:     c.grid,
		Runs:     runs,
		Load:     c.load,
		Cache:    c.opt.Cache.Stats(),
		CacheErr: c.cacheErr,
		Workers:  len(c.workers),
		Elapsed:  time.Since(c.start),
	}, nil
}

// Stats snapshots the coordinator's traffic counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Workers = len(c.workers)
	return s
}
