package dist

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/sweep"
)

// WorkerOptions tunes one worker loop.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (lease ownership,
	// stats). Empty derives one from the hostname and PID.
	Name string

	// Batch is how many units to lease per request; <= 0 means 4 — a
	// balance between round trips and lease-retry granularity (a
	// crashed worker re-runs at most one batch).
	Batch int

	// Poll is how long to sleep when everything is leased elsewhere;
	// <= 0 means 25 ms.
	Poll time.Duration

	// execHook substitutes the per-unit execution in tests (slow stub
	// runners for renewal coverage, controlled failures). nil means
	// Runner.Exec.
	execHook func(rn *sweep.Runner, s sweep.Scenario) sweep.RunResult
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.Batch <= 0 {
		o.Batch = 4
	}
	if o.Poll <= 0 {
		o.Poll = 25 * time.Millisecond
	}
	return o
}

// Work runs one worker loop against a coordinator: fetch the grid,
// build a Runner, then lease-execute-complete until the coordinator
// reports the sweep done. It returns how many units this worker
// executed. Scenario failures are rows, not errors; Work fails only
// on transport or grid problems.
//
// Workers join and leave freely: there is no registration beyond the
// first lease, a canceled ctx drains gracefully (executed rows are
// completed, unexecuted leases released for immediate re-lease), and
// a vanished worker's leases expire on the TTL and re-lease to
// whoever asks next.
func Work(ctx context.Context, b Backend, opt WorkerOptions) (int, error) {
	opt = opt.withDefaults()
	g, err := b.Grid(ctx)
	if err != nil {
		return 0, fmt.Errorf("dist: fetching grid: %w", err)
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return 0, fmt.Errorf("dist: %w", err)
	}
	// File-backed inputs this process cannot read are fetched from the
	// coordinator by spec and verified against its fingerprints — the
	// no-shared-filesystem deployment path (see blobstore.go).
	rn.SetBlobSource(backendBlobs{ctx: ctx, b: b, poll: opt.Poll})
	exec := rn.Exec
	if opt.execHook != nil {
		exec = func(s sweep.Scenario) sweep.RunResult { return opt.execHook(rn, s) }
	}

	// Transient transport failures (a coordinator restarting, a
	// dropped connection) are retried with growing backoff before the
	// worker gives up — wide enough to bridge a brief outage, and the
	// coordinator's Complete is idempotent so re-sends are safe. The
	// in-process transport never errors.
	backoffs := []time.Duration{0, opt.Poll, 10 * opt.Poll, 40 * opt.Poll}
	withRetry := func(op func() error) error {
		var err error
		for _, wait := range backoffs {
			if wait > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(wait):
				}
			}
			if err = op(); err == nil {
				return nil
			}
			if isPermanent(err) {
				// A protocol rejection (4xx) cannot be retried into
				// success; surface it immediately and loudly.
				return err
			}
		}
		return err
	}

	executed := 0
	for {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		var reply LeaseReply
		err := withRetry(func() (err error) {
			reply, err = b.Lease(ctx, opt.Name, opt.Batch)
			return err
		})
		if err != nil {
			return executed, fmt.Errorf("dist: leasing: %w", err)
		}
		if len(reply.Units) == 0 {
			if reply.Done {
				return executed, nil
			}
			// Everything is leased elsewhere; poll until a lease
			// expires or the sweep finishes.
			select {
			case <-ctx.Done():
				return executed, ctx.Err()
			case <-time.After(opt.Poll):
			}
			continue
		}

		// While the batch executes, a background loop renews its
		// leases at TTL/3 so a scenario slower than the TTL is not
		// presumed crashed and redundantly re-leased elsewhere.
		// Renewal is best-effort: if it fails the lease just expires
		// and the determinism contract absorbs the duplicate.
		stopRenew := make(chan struct{})
		var renewWG sync.WaitGroup
		if reply.TTL > 0 {
			refs := make([]UnitRef, len(reply.Units))
			for i, u := range reply.Units {
				refs[i] = UnitRef{Seq: u.Seq, Lease: u.Lease}
			}
			// Floor the interval so a pathological sub-3ns TTL cannot
			// panic the ticker; such leases simply expire unrenewed.
			interval := reply.TTL / 3
			if interval < time.Millisecond {
				interval = time.Millisecond
			}
			renewWG.Add(1)
			go func() {
				defer renewWG.Done()
				t := time.NewTicker(interval)
				defer t.Stop()
				for {
					select {
					case <-stopRenew:
						return
					case <-ctx.Done():
						return
					case <-t.C:
						_ = b.Renew(ctx, opt.Name, refs)
					}
				}
			}()
		}

		before := rn.LoadStats()
		results := make([]UnitResult, 0, len(reply.Units))
		drained := false
		for _, u := range reply.Units {
			if ctx.Err() != nil {
				drained = true
				break
			}
			// The worker's own cache key rides along so the
			// coordinator can detect divergent file-backed inputs
			// before accepting (and caching) the row.
			key, _ := rn.CacheKey(u.Scenario)
			results = append(results, UnitResult{Seq: u.Seq, Lease: u.Lease, Row: exec(u.Scenario), Key: key})
		}
		close(stopRenew)
		renewWG.Wait()
		after := rn.LoadStats()
		delta := sweep.LoadStats{
			TraceRequests:     after.TraceRequests - before.TraceRequests,
			TraceBuilds:       after.TraceBuilds - before.TraceBuilds,
			PredictRequests:   after.PredictRequests - before.PredictRequests,
			PredictBuilds:     after.PredictBuilds - before.PredictBuilds,
			SharedPlacements:  after.SharedPlacements - before.SharedPlacements,
			LookaheadComputed: after.LookaheadComputed - before.LookaheadComputed,
			LookaheadUsed:     after.LookaheadUsed - before.LookaheadUsed,
		}
		if drained {
			// Graceful leave: land the rows already executed and hand
			// the unexecuted leases back for immediate re-lease, on a
			// detached context (the canceled one would abort the very
			// calls that make the departure clean). Best-effort single
			// attempts — if the coordinator is gone too, the leases
			// just expire the crashed-worker way.
			dctx := context.WithoutCancel(ctx)
			if len(results) > 0 {
				if err := b.Complete(dctx, opt.Name, results, delta); err == nil {
					executed += len(results)
				}
			}
			refs := make([]UnitRef, 0, len(reply.Units)-len(results))
			for _, u := range reply.Units[len(results):] {
				refs = append(refs, UnitRef{Seq: u.Seq, Lease: u.Lease})
			}
			if len(refs) > 0 {
				_ = b.Release(dctx, opt.Name, refs)
			}
			return executed, ctx.Err()
		}
		if err := withRetry(func() error {
			return b.Complete(ctx, opt.Name, results, delta)
		}); err != nil {
			return executed, fmt.Errorf("dist: completing: %w", err)
		}
		executed += len(results)
	}
}

// RunLocal runs the whole distributed pipeline in one process: a
// coordinator plus n worker goroutines over the in-process transport
// (`ntc-sweep -dist local:N`). It exercises the exact protocol a real
// cluster runs — leases, batching, cache read-through/write-back —
// minus the network, and returns the merged results and traffic
// stats. n <= 0 means GOMAXPROCS.
func RunLocal(ctx context.Context, g sweep.Grid, n int, opt Options) (*sweep.Results, Stats, error) {
	c, err := NewCoordinator(g, opt)
	if err != nil {
		return nil, Stats{}, err
	}
	return RunCoordinator(ctx, c, n)
}

// RunCoordinator drives an existing coordinator — fresh or resumed
// from a checkpoint — with n in-process worker goroutines. n <= 0
// means GOMAXPROCS.
func RunCoordinator(ctx context.Context, c *Coordinator, n int) (*sweep.Results, Stats, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Work(ctx, c, WorkerOptions{Name: fmt.Sprintf("local-%d", i)}); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, c.Stats(), firstErr
	}
	res, err := c.Wait(ctx)
	return res, c.Stats(), err
}
