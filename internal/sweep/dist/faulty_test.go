package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/sweep"
)

// faultTransport wraps any Backend in seeded chaos: calls are dropped
// before they take effect, their replies are lost after they took
// effect, idempotent mutations are delivered twice, every call gets
// random extra latency, and the whole transport can be hard-killed
// mid-run — after which every call errors, which is exactly what a
// SIGKILLed coordinator looks like to a worker, and what a vanished
// worker looks like to the coordinator. All dist tests share this one
// wrapper instead of growing ad-hoc crash plumbing; the seed makes
// every interleaving reproducible.
type faultTransport struct {
	b Backend

	mu  sync.Mutex
	rng *rand.Rand

	dropP    float64       // P(call dropped before reaching the backend)
	lostP    float64       // P(reply lost after the call took effect)
	dupP     float64       // P(mutation delivered a second time)
	maxDelay time.Duration // uniform extra latency per call

	// killAfterCompletes / killAfterLeases hard-kill the transport
	// after the Nth successful call of that kind; < 0 means never.
	killAfterCompletes int
	killAfterLeases    int

	completes int
	leases    int
	dead      bool
}

var (
	errInjectedDrop  = errors.New("faulty: injected transport failure")
	errTransportDead = errors.New("faulty: transport killed")
)

// newFaultTransport returns a transport with moderate default chaos.
// Tests that need surgical failures (a kill at an exact point, nothing
// else) zero the probabilities and set the kill counters.
func newFaultTransport(b Backend, seed int64) *faultTransport {
	return &faultTransport{
		b:                  b,
		rng:                rand.New(rand.NewSource(seed)),
		dropP:              0.12,
		lostP:              0.06,
		dupP:               0.10,
		maxDelay:           2 * time.Millisecond,
		killAfterCompletes: -1,
		killAfterLeases:    -1,
	}
}

// quiet zeroes every probabilistic fault, leaving only the kill
// counters: deterministic crash tests.
func (f *faultTransport) quiet() *faultTransport {
	f.dropP, f.lostP, f.dupP, f.maxDelay = 0, 0, 0, 0
	return f
}

// plan rolls this call's faults under the lock; the sleep itself
// happens outside it.
func (f *faultTransport) plan() (delay time.Duration, drop, lost, dup, dead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return 0, false, false, false, true
	}
	if f.maxDelay > 0 {
		delay = time.Duration(f.rng.Int63n(int64(f.maxDelay)))
	}
	drop = f.rng.Float64() < f.dropP
	lost = f.rng.Float64() < f.lostP
	dup = f.rng.Float64() < f.dupP
	return delay, drop, lost, dup, false
}

func (f *faultTransport) Grid(ctx context.Context) (sweep.Grid, error) {
	delay, drop, lost, _, dead := f.plan()
	if dead {
		return sweep.Grid{}, errTransportDead
	}
	time.Sleep(delay)
	if drop {
		return sweep.Grid{}, errInjectedDrop
	}
	g, err := f.b.Grid(ctx)
	if err == nil && lost {
		return sweep.Grid{}, errInjectedDrop
	}
	return g, err
}

func (f *faultTransport) Lease(ctx context.Context, worker string, max int) (LeaseReply, error) {
	delay, drop, _, lost, dead := f.plan()
	if dead {
		return LeaseReply{}, errTransportDead
	}
	time.Sleep(delay)
	if drop {
		return LeaseReply{}, errInjectedDrop
	}
	reply, err := f.b.Lease(ctx, worker, max)
	if err != nil {
		return reply, err
	}
	f.mu.Lock()
	f.leases++
	if f.killAfterLeases >= 0 && f.leases >= f.killAfterLeases {
		f.dead = true
	}
	f.mu.Unlock()
	if lost {
		// The grant happened but the worker never saw it: the units
		// stay leased to a ghost until the TTL reclaims them.
		return LeaseReply{}, errInjectedDrop
	}
	return reply, nil
}

func (f *faultTransport) Renew(ctx context.Context, worker string, refs []UnitRef) error {
	return f.mutate(func() error { return f.b.Renew(ctx, worker, refs) })
}

func (f *faultTransport) Release(ctx context.Context, worker string, refs []UnitRef) error {
	return f.mutate(func() error { return f.b.Release(ctx, worker, refs) })
}

func (f *faultTransport) Complete(ctx context.Context, worker string, results []UnitResult, load sweep.LoadStats) error {
	delay, drop, lost, dup, dead := f.plan()
	if dead {
		return errTransportDead
	}
	time.Sleep(delay)
	if drop {
		return errInjectedDrop
	}
	if err := f.b.Complete(ctx, worker, results, load); err != nil {
		return err
	}
	killed := false
	f.mu.Lock()
	f.completes++
	if f.killAfterCompletes >= 0 && f.completes >= f.killAfterCompletes {
		f.dead = true
		killed = true
	}
	f.mu.Unlock()
	if dup && !killed {
		// A duplicate delivery of the same batch: Complete is
		// idempotent, so the second copy must be counted, not applied.
		_ = f.b.Complete(ctx, worker, results, load)
	}
	if lost {
		// The rows landed but the ack was lost: the worker retries and
		// the coordinator counts duplicates.
		return errInjectedDrop
	}
	return nil
}

func (f *faultTransport) Blob(ctx context.Context, kind, spec string) (BlobReply, error) {
	delay, drop, lost, _, dead := f.plan()
	if dead {
		return BlobReply{}, errTransportDead
	}
	time.Sleep(delay)
	if drop {
		return BlobReply{}, errInjectedDrop
	}
	rep, err := f.b.Blob(ctx, kind, spec)
	if err == nil && lost {
		return BlobReply{}, errInjectedDrop
	}
	return rep, err
}

// mutate applies the fault plan to a best-effort mutation (Renew,
// Release) whose reply carries nothing.
func (f *faultTransport) mutate(op func() error) error {
	delay, drop, lost, dup, dead := f.plan()
	if dead {
		return errTransportDead
	}
	time.Sleep(delay)
	if drop {
		return errInjectedDrop
	}
	if err := op(); err != nil {
		return err
	}
	if dup {
		_ = op()
	}
	if lost {
		return errInjectedDrop
	}
	return nil
}

// sweepDone reports whether the coordinator has a row for every unit.
func sweepDone(c *Coordinator) bool {
	select {
	case <-c.Done():
		return true
	default:
		return false
	}
}

// TestChaosFaultInjectionMatchesEngine is the headline property test:
// whatever interleaving of drops, lost replies, duplicate deliveries,
// latency, and worker deaths a seed produces — in-process or over real
// HTTP — the sweep's CSV and JSON come out byte-identical to the
// single-process engine.
func TestChaosFaultInjectionMatchesEngine(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}

	run := func(t *testing.T, seed int64, overHTTP bool) {
		ctx := context.Background()
		c, err := NewCoordinator(testGrid(), Options{LeaseTTL: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		var base Backend = c
		if overHTTP {
			srv := httptest.NewServer(NewHandler(c))
			defer srv.Close()
			base = NewClient(srv.URL)
		}

		// Four workers, each behind its own seeded chaos. Some will die
		// (a run of drops exhausts their retry budget) — that IS the
		// churn under test, so their errors are expected, not fatal.
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			ft := newFaultTransport(base, seed+int64(i)*101)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, _ = Work(ctx, ft, WorkerOptions{
					Name: fmt.Sprintf("chaos-%d", i),
					Poll: 5 * time.Millisecond,
				})
			}(i)
		}
		wg.Wait()
		// If chaos killed every worker, a clean replacement joining
		// late finishes whatever is left (including leases stranded by
		// lost replies, once their TTL lapses).
		if !sweepDone(c) {
			if _, err := Work(ctx, c, WorkerOptions{Name: "sweeper", Poll: 5 * time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}

		res, err := c.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			t.Fatal(err)
		}
		if res.CSV() != want.CSV() {
			t.Errorf("seed %d: chaos CSV differs from engine:\n%s\nvs\n%s", seed, res.CSV(), want.CSV())
		}
		gj, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wantJSON) {
			t.Errorf("seed %d: chaos JSON differs from engine", seed)
		}
		if s := c.Stats(); s.Units != 8 {
			t.Errorf("stats.Units = %d, want 8", s.Units)
		}
	}

	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("inproc-seed=%d", seed), func(t *testing.T) { run(t, seed, false) })
	}
	t.Run("http-seed=1", func(t *testing.T) { run(t, 1, true) })
}

// TestChaosCoordinatorKillAndResume simulates a coordinator SIGKILLed
// mid-grid via the transport guillotine: three rows land and journal,
// the coordinator goes dark, and a second coordinator resumed from the
// journal finishes the grid byte-identically without re-executing a
// single journaled unit.
func TestChaosCoordinatorKillAndResume(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dir := t.TempDir()

	a, err := NewCoordinator(testGrid(), Options{CheckpointDir: dir, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ft := newFaultTransport(a, 1).quiet()
	ft.killAfterCompletes = 3
	// The worker lands three rows, one Complete each, then every call
	// hits the dead transport: from its point of view the coordinator
	// was kill -9'd between two rows.
	n, err := Work(ctx, ft, WorkerOptions{Name: "doomed", Poll: time.Millisecond})
	if n != 3 {
		t.Fatalf("doomed worker executed %d units before the kill, want 3", n)
	}
	if err == nil {
		t.Fatal("worker survived a dead coordinator")
	}

	ck, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Completed != 3 {
		t.Fatalf("journal holds %d rows, want the 3 completed before the kill", ck.Completed)
	}

	b, err := Resume(ck, Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().Resumed; got != 3 {
		t.Fatalf("Stats.Resumed = %d, want 3", got)
	}
	executed, err := Work(ctx, b, WorkerOptions{Name: "replacement", Poll: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if executed != 5 {
		t.Errorf("replacement executed %d units, want exactly the 5 the journal lacked", executed)
	}

	res, err := b.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Errorf("resumed CSV differs from engine:\n%s\nvs\n%s", res.CSV(), want.CSV())
	}
	stats := b.Stats()
	if stats.Leases != 5 || stats.Expired != 0 {
		t.Errorf("resume stats = %+v, want 5 fresh leases and no expiries", stats)
	}

	// The resumed coordinator kept journaling: the journal now covers
	// the whole grid, and resuming it once more is instantly done.
	ck2, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Completed != 8 {
		t.Fatalf("post-run journal holds %d rows, want all 8", ck2.Completed)
	}
	done, err := Resume(ck2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !sweepDone(done) {
		t.Fatal("resuming a complete journal still wants workers")
	}
	res2, err := done.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CSV() != want.CSV() {
		t.Error("fully-resumed CSV differs from engine")
	}
	if s := done.Stats(); s.Resumed != 8 || s.Leases != 0 {
		t.Errorf("fully-resumed stats = %+v, want 8 resumed, 0 leases", s)
	}
}

// TestSlowRunnerRenewsInsteadOfExpiring is the renewal acceptance
// check on a real clock: a scenario slower than the lease TTL finishes
// under its original lease because the worker renews at TTL/3 — the
// unit is never re-leased and never expires.
func TestSlowRunnerRenewsInsteadOfExpiring(t *testing.T) {
	g := testGrid()
	g.Policies = []string{"EPACT"}
	g.MaxServers = []int{24}
	g.Transitions = []sweep.TransitionSpec{{Name: "none"}} // 1 unit
	c, err := NewCoordinator(g, Options{LeaseTTL: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	slow := WorkerOptions{
		Name: "slow",
		Poll: 5 * time.Millisecond,
		execHook: func(rn *sweep.Runner, s sweep.Scenario) sweep.RunResult {
			time.Sleep(time.Second) // 2.5 lease TTLs
			return rn.Exec(s)
		},
	}
	n, err := Work(ctx, c, slow)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("slow worker executed %d units, want 1", n)
	}

	res, err := c.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	stats := c.Stats()
	if stats.Leases != 1 {
		t.Errorf("stats.Leases = %d, want the single original lease (no re-lease of a renewing worker)", stats.Leases)
	}
	if stats.Renewals < 1 {
		t.Errorf("stats.Renewals = %d, want at least one renewal during a 1s execution under a 400ms TTL", stats.Renewals)
	}
	if stats.Expired != 0 {
		t.Errorf("stats.Expired = %d, want 0 — the renewed lease must never lapse", stats.Expired)
	}
}

// TestCanceledWorkerDrainsGracefully pins the leave half of worker
// churn: a worker whose context is canceled mid-row completes the row
// it is executing, and one canceled while a lease is granted releases
// that lease, which re-leases immediately — no TTL wait, no expiry.
func TestCanceledWorkerDrainsGracefully(t *testing.T) {
	want, err := sweep.Run(testGrid(), sweep.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(testGrid(), Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	drainer := WorkerOptions{
		Name: "drainer",
		Poll: time.Millisecond,
		execHook: func(rn *sweep.Runner, s sweep.Scenario) sweep.RunResult {
			cancel() // leave after this unit
			return rn.Exec(s)
		},
	}
	n, err := Work(ctx, c, drainer)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("drained worker returned %v, want context.Canceled", err)
	}
	if n != 1 {
		t.Fatalf("drained worker landed %d rows, want the 1 executed before cancel", n)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	n, err = Work(ctx, cancelOnLease{c, cancel}, WorkerOptions{Name: "leaver", Poll: time.Millisecond})
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("worker canceled on its lease returned %d rows, %v; want 0, context.Canceled", n, err)
	}
	if got := c.Stats().Released; got != 1 {
		t.Fatalf("stats.Released = %d, want the 1 unexecuted lease handed back", got)
	}

	// With a one-minute TTL, only an actual Release makes the handed
	// back unit leasable now: a replacement finishes the sweep with
	// zero expiries.
	bg := context.Background()
	if _, err := Work(bg, c, WorkerOptions{Name: "finisher", Poll: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(bg)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if res.CSV() != want.CSV() {
		t.Error("post-drain CSV differs from engine")
	}
	if s := c.Stats(); s.Expired != 0 {
		t.Errorf("stats.Expired = %d, want 0 — released units must not wait out the TTL", s.Expired)
	}
}

// cancelOnLease is the in-process coordinator with a Lease that
// cancels the worker's context once the lease is granted.
type cancelOnLease struct {
	*Coordinator
	cancel context.CancelFunc
}

func (b cancelOnLease) Lease(ctx context.Context, worker string, max int) (LeaseReply, error) {
	defer b.cancel()
	return b.Coordinator.Lease(ctx, worker, max)
}
