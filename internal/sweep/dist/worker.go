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
// A worker in the coordinator's own process (b is a *Coordinator, or
// embeds one) builds no Runner: it executes on the coordinator's, which
// all such workers share, and reports no load stats of its own, since
// the coordinator counts that Runner once.
//
// The worker leases one unit at a time and sends its row in its own
// Complete as soon as it finishes, with the load stats gathered since
// the previous Complete, so a row lands (and is journaled and cached)
// before the worker leases the next.
//
// Workers join and leave freely: there is no registration beyond the
// first lease, a canceled ctx drains gracefully (the row executing
// when it is canceled is completed, a lease granted as it is canceled
// is released for immediate re-lease), and a vanished worker's lease
// expires on the TTL and re-leases to whoever asks next.
func Work(ctx context.Context, b Backend, opt WorkerOptions) (int, error) {
	opt = opt.withDefaults()
	rn, load, err := workerRunner(ctx, b, opt)
	if err != nil {
		return 0, err
	}
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

	// A graceful leave runs its last calls on a detached context (the
	// canceled one would abort the very calls that make the departure
	// clean), as best-effort single attempts: if the coordinator is
	// gone too, the lease just expires the crashed-worker way.
	dctx := context.WithoutCancel(ctx)
	executed := 0
	sent := load() // the load stats reported so far
	for {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		var reply LeaseReply
		err := withRetry(func() (err error) {
			reply, err = b.Lease(ctx, opt.Name, 1)
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
		u := reply.Units[0]
		refs := []UnitRef{{Seq: u.Seq, Lease: u.Lease}}
		if ctx.Err() != nil {
			// Hand the unexecuted lease back for immediate re-lease.
			_ = b.Release(dctx, opt.Name, refs)
			return executed, ctx.Err()
		}

		// While the unit executes, a background loop renews its lease
		// at TTL/3 so a scenario slower than the TTL is not presumed
		// crashed and redundantly re-leased elsewhere. Renewal is
		// best-effort: if it fails the lease just expires and the
		// determinism contract absorbs the duplicate.
		stopRenew := make(chan struct{})
		var renewWG sync.WaitGroup
		if reply.TTL > 0 {
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

		// The worker's own cache key rides along so the coordinator
		// can detect divergent file-backed inputs before accepting
		// (and caching) the row.
		key, _ := rn.CacheKey(u.Scenario)
		results := []UnitResult{{Seq: u.Seq, Lease: u.Lease, Row: exec(u.Scenario), Key: key}}
		now := load()
		delta := now.Sub(sent)
		sent = now
		var cerr error
		if ctx.Err() != nil {
			if b.Complete(dctx, opt.Name, results, delta) == nil {
				executed++
			}
		} else if cerr = withRetry(func() error {
			return b.Complete(ctx, opt.Name, results, delta)
		}); cerr == nil {
			executed++
		}
		close(stopRenew)
		renewWG.Wait()
		if cerr != nil {
			return executed, fmt.Errorf("dist: completing: %w", cerr)
		}
	}
}

// inProcess is a Backend in the coordinator's own process: the
// *Coordinator, or a type that embeds one.
type inProcess interface {
	sweepRunner() *sweep.Runner
}

// workerRunner returns the Runner a worker on b executes on and the
// load stats it reports: the coordinator's shared Runner and none when
// b is in process, else a Runner of its own for the coordinator's grid,
// fetching the files it cannot read from b.
func workerRunner(ctx context.Context, b Backend, opt WorkerOptions) (*sweep.Runner, func() sweep.LoadStats, error) {
	if ip, ok := b.(inProcess); ok {
		return ip.sweepRunner(), func() sweep.LoadStats { return sweep.LoadStats{} }, nil
	}
	g, err := b.Grid(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: fetching grid: %w", err)
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return nil, nil, fmt.Errorf("dist: %w", err)
	}
	// File-backed inputs this process cannot read are fetched from the
	// coordinator by spec and verified against its fingerprints — the
	// no-shared-filesystem deployment path (see blobstore.go).
	rn.SetBlobSource(backendBlobs{ctx: ctx, b: b, poll: opt.Poll})
	return rn, rn.LoadStats, nil
}

// RunCoordinator drives an existing coordinator — fresh or resumed
// from a checkpoint — with n in-process worker goroutines, named
// local-0 to local-<n-1>. n <= 0 means GOMAXPROCS. A resumed
// coordinator's leases held under those names were held by in-process
// workers that died with the coordinator that granted them: they are
// handed back for immediate re-lease before the workers start, while
// other workers' leases keep their deadlines.
func RunCoordinator(ctx context.Context, c *Coordinator, n int) (*sweep.Results, Stats, error) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("local-%d", i)
	}
	c.releaseWorkers(names)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := Work(ctx, c, WorkerOptions{Name: names[i]}); err != nil {
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
