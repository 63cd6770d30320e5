package sweep

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/trace"
)

// offerCounter is a dcsim.LookaheadPolicy that counts offers.
type offerCounter struct {
	alloc.Policy
	offers *atomic.Int64
}

func (o offerCounter) Offer(*dcsim.Window)    { o.offers.Add(1) }
func (o offerCounter) Withdraw(*dcsim.Window) {}

// TestLiveStepperNeverOffersWindow: a stepper built from
// LiveStepperConfig never offers a window, since a live feed's later
// predictions do not exist yet; the batch config of the same scenario
// offers one per DC that hosts VMs.
func TestLiveStepperNeverOffersWindow(t *testing.T) {
	g := Grid{Policies: []string{"EPACT"}, VMs: []int{24}, MaxServers: []int{24},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"}}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	counting := func(cfg topology.Config) (topology.Config, *atomic.Int64) {
		offers := new(atomic.Int64)
		inner := cfg.NewPolicy
		cfg.NewPolicy = func(m power.Model) (alloc.Policy, error) {
			pol, err := inner(m)
			return offerCounter{Policy: pol, offers: offers}, err
		}
		return cfg, offers
	}

	batch, err := rn.StepperConfig(scens[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg, offers := counting(batch)
	if _, err := topology.NewStepper(cfg); err != nil {
		t.Fatal(err)
	}
	if offers.Load() != 1 {
		t.Fatalf("the batch stepper offered %d windows, want 1", offers.Load())
	}

	live, _, err := rn.LiveStepperConfig(scens[0])
	if err != nil {
		t.Fatal(err)
	}
	cfg, offers = counting(live)
	if _, err := topology.NewStepper(cfg); err != nil {
		t.Fatal(err)
	}
	if offers.Load() != 0 {
		t.Fatalf("the live stepper offered %d windows, want 0", offers.Load())
	}
}

// TestFailedRowWithdrawsWindows: when one DC's policy fails mid-window
// while a helper allocates ahead, the failed stepper withdraws its
// window at once, the end of the row withdraws the windows of the DCs
// it left unstepped, and nothing a helper made outlives the row.
func TestFailedRowWithdrawsWindows(t *testing.T) {
	g := Grid{Policies: []string{"EPACT"}, VMs: []int{60}, MaxServers: []int{60},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"},
		Topologies: []string{"uniform@triad"}}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	// Half this budget holds at most two of a 20-VM DC's entries
	// ahead, so the stepper's first calls still reach its policy.
	m := newAllocMemo(4 * (entryOverhead + 4*60))
	rn.memo = m
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	row := &aheadRow{}
	cfg, _, err := rn.fleetConfig(scens[0], row)
	if err != nil {
		t.Fatal(err)
	}
	// The first DC's policy fails on its third call.
	var built atomic.Int64
	cfg.NewPolicy = func(model power.Model) (alloc.Policy, error) {
		inner, err := newPolicy("EPACT", model)
		if err != nil {
			return nil, err
		}
		cp := &countingPolicy{Policy: inner}
		if built.Add(1) == 1 {
			cp.fail = func(n int64) bool { return n == 3 }
		}
		return m.wrap("EPACT", model, cp, row, new(keyPrefixes)), nil
	}

	var helper sync.WaitGroup
	helper.Add(1)
	go func() {
		defer helper.Done()
		m.help()
	}()
	defer func() {
		m.stopAhead()
		helper.Wait()
	}()

	st, err := topology.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dcs := len(row.wins)
	if dcs < 2 {
		t.Fatalf("%d windows offered; the test needs a fleet with at least two loaded DCs", dcs)
	}
	for deadline := time.Now().Add(10 * time.Second); m.aheadComputed.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the helper computed nothing ahead")
		}
		time.Sleep(time.Millisecond)
	}
	var stepErr error
	for stepErr == nil && !st.Done() {
		_, stepErr = st.Step()
	}
	if stepErr == nil {
		t.Fatal("the injected failure did not fail the row")
	}

	m.mu.Lock()
	open := len(m.windows)
	failedClosed := row.wins[0].closed
	m.mu.Unlock()
	if !failedClosed {
		t.Error("the failed stepper's window is still open")
	}
	if open == 0 {
		t.Error("no window left open after the failure; the row-end path goes untested")
	}
	m.endRow(row)

	m.stopAhead()
	helper.Wait()
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.windows) != 0 || m.aheadBytes != 0 {
		t.Errorf("after the row: %d windows open, %d bytes held ahead; want none", len(m.windows), m.aheadBytes)
	}
	for k, e := range m.entries {
		if e.win != nil {
			t.Errorf("entry %x still belongs to a window", k[:4])
		}
	}
	if len(m.entries) != len(m.fifo) {
		t.Errorf("%d entries but %d in the FIFO: a helper's entry outlived the row", len(m.entries), len(m.fifo))
	}
}

// TestRunLeavesNoGoroutines: helpers exit with Run, including the
// workers beyond the row count that only ever help.
func TestRunLeavesNoGoroutines(t *testing.T) {
	g := Grid{Policies: []string{"EPACT", "COAT"}, VMs: []int{40}, MaxServers: []int{40},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"}}
	// Goroutines of earlier tests may still be exiting: count once the
	// number holds still.
	before := runtime.NumGoroutine()
	for n := -1; n != before; {
		n = before
		time.Sleep(20 * time.Millisecond)
		before = runtime.NumGoroutine()
	}
	res, err := Run(g, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	// A goroutine that has returned may still count for a moment.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after != before && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Fatalf("%d goroutines after Run, %d before", after, before)
	}
}

// TestWaitersAllocateAhead: two pricing siblings (EPACT on ntc and on
// tdp) make the same allocation calls, so run side by side on one
// Runner they step in lockstep, each finding calls the other is still
// computing. Nothing else helps here, as in Run with two workers while
// both rows run, so every slot computed ahead is a waiter's. Bytes must
// equal the memo-off rows and shared placements the serial count.
// Whether the rows meet on a pending call depends on scheduling, so a
// run without waiter help is retried; the byte and count checks hold
// on every run.
func TestWaitersAllocateAhead(t *testing.T) {
	g := Grid{Policies: []string{"EPACT"}, VMs: []int{120}, MaxServers: []int{120},
		HistoryDays: 1, EvalDays: 3, Seeds: []int64{2018}, Predictors: []string{"oracle"},
		PowerModels: []string{"ntc", "tdp"}}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	ref.memo = nil
	want := &Results{Grid: ref.Grid()}
	for _, s := range scens {
		want.Runs = append(want.Runs, ref.Exec(s))
	}
	if err := want.Failed(); err != nil {
		t.Fatal(err)
	}
	wantJSON, err := want.JSON()
	if err != nil {
		t.Fatal(err)
	}
	_, _, hits := memoRun(t, g)
	wantHits := int64(hits[0] + hits[1])

	for attempt := 1; ; attempt++ {
		rn, err := NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		res := &Results{Grid: rn.Grid(), Runs: make([]RunResult, len(scens))}
		var wg sync.WaitGroup
		for i := range scens {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res.Runs[i] = rn.Exec(scens[i])
			}()
		}
		wg.Wait()
		if got := res.CSV(); got != want.CSV() {
			t.Fatalf("CSV differs from memo-off rows:\n%s\nvs\n%s", got, want.CSV())
		}
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, wantJSON) {
			t.Fatal("JSON differs from memo-off rows")
		}
		ld := rn.LoadStats()
		if ld.SharedPlacements != wantHits {
			t.Errorf("%d memo hits, want the serial %d", ld.SharedPlacements, wantHits)
		}
		if ld.LookaheadUsed > ld.LookaheadComputed {
			t.Errorf("%d lookahead entries used but only %d computed", ld.LookaheadUsed, ld.LookaheadComputed)
		}
		t.Logf("attempt %d: waiters computed %d allocations ahead, %d used", attempt, ld.LookaheadComputed, ld.LookaheadUsed)
		if ld.LookaheadComputed > 0 {
			return
		}
		if attempt == 5 {
			t.Fatal("no waiter computed a slot ahead in 5 runs")
		}
	}
}

// TestWaiterHelpsOnlyWhilePending: with a window open on a Runner's
// memo, a call whose input is already filled takes the entry and
// computes nothing ahead; a call that finds its input pending computes
// the window's slots, stops soon after the input is filled, and never
// takes a failed entry, running its own policy instead.
func TestWaiterHelpsOnlyWhilePending(t *testing.T) {
	g := Grid{Policies: []string{"EPACT"}, VMs: []int{120}, MaxServers: []int{120},
		HistoryDays: 1, EvalDays: 7, Predictors: []string{"oracle"}}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	model := power.NTCServer()
	vms, spec := memoInput(model)
	inner, err := newPolicy("EPACT", model)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inner.Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}

	// open returns a Runner's memo with one stepper's window open, and
	// how many of its slots a helper may claim.
	open := func(t *testing.T) (*allocMemo, int) {
		t.Helper()
		rn, err := NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		row := &aheadRow{}
		cfg, _, err := rn.fleetConfig(scens[0], row)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := topology.NewStepper(cfg); err != nil {
			t.Fatal(err)
		}
		if len(row.wins) != 1 {
			t.Fatalf("%d windows offered, want 1", len(row.wins))
		}
		t.Cleanup(func() { rn.memo.endRow(row) })
		w := row.wins[0].w
		return rn.memo, w.Last - 1 - w.Next()
	}

	t.Run("filled", func(t *testing.T) {
		m, _ := open(t)
		pol, _ := counted(t, m, "EPACT", model)
		if _, err := pol.Allocate(vms, spec); err != nil {
			t.Fatal(err)
		}
		a, err := pol.Allocate(vms, spec)
		if err != nil || !sameAssignment(a, want) {
			t.Fatalf("second call: %+v, %v", a, err)
		}
		if n := m.aheadComputed.Load(); n != 0 {
			t.Errorf("a call whose input was filled computed %d slots ahead, want 0", n)
		}
		if h := m.hits.Load(); h != 1 {
			t.Errorf("%d hits, want 1", h)
		}
	})

	for _, fails := range []bool{false, true} {
		t.Run(fmt.Sprintf("pending/fails=%v", fails), func(t *testing.T) {
			m, claimable := open(t)
			filler, fcp := counted(t, m, "EPACT", model)
			fcp.gate = make(chan struct{})
			if fails {
				fcp.fail = func(int64) bool { return true }
			}
			waiter, wcp := counted(t, m, "EPACT", model)

			filled := make(chan error)
			go func() {
				_, err := filler.Allocate(vms, spec)
				filled <- err
			}()
			for fcp.calls.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			type answer struct {
				a   *alloc.Assignment
				err error
			}
			waited := make(chan answer)
			go func() {
				a, err := waiter.Allocate(vms, spec)
				waited <- answer{a, err}
			}()
			// The entry stays pending until the waiter has computed a
			// slot ahead.
			for deadline := time.Now().Add(10 * time.Second); m.aheadComputed.Load() == 0; {
				if time.Now().After(deadline) {
					t.Fatal("the waiter computed nothing ahead while the entry was pending")
				}
				time.Sleep(100 * time.Microsecond)
			}
			close(fcp.gate)
			if err := <-filled; (err != nil) != fails {
				t.Fatalf("filling call: %v", err)
			}
			got := <-waited
			if got.err != nil || !sameAssignment(got.a, want) {
				t.Fatalf("waiting call: %+v, %v", got.a, got.err)
			}
			// Only a failed entry sends the waiter to its own policy.
			wantCalls := int64(0)
			if fails {
				wantCalls = 1
			}
			if n := wcp.calls.Load(); n != wantCalls {
				t.Errorf("the waiter's policy ran %d times, want %d", n, wantCalls)
			}
			if n := m.aheadComputed.Load(); n >= int64(claimable)/2 {
				t.Errorf("the waiter computed %d of the window's %d claimable slots: it went on after its entry was released", n, claimable)
			}
			t.Logf("the waiter computed %d of %d claimable slots", m.aheadComputed.Load(), claimable)
		})
	}
}

// TestLongLivedRunnerHoldsNoWindows: a Runner that outlives its rows,
// as a daemon's does, holds a window only while an Exec runs. Steppers
// from StepperConfig and LiveStepperConfig, stepped to the end, never
// open one, and two pricing siblings executed side by side leave no
// window and no helper bytes behind.
func TestLongLivedRunnerHoldsNoWindows(t *testing.T) {
	g := Grid{Policies: []string{"EPACT"}, VMs: []int{40}, MaxServers: []int{40},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"},
		PowerModels: []string{"ntc", "tdp"}}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	holdsNone := func(when string) {
		t.Helper()
		m := rn.memo
		m.mu.Lock()
		n, b := len(m.windows), m.aheadBytes
		m.mu.Unlock()
		if n != 0 || b != 0 {
			t.Fatalf("%s: the memo holds %d open windows and %d ahead bytes, want none", when, n, b)
		}
	}
	stepAll := func(name string, cfg topology.Config, observe func(slot int)) {
		t.Helper()
		st, err := topology.NewStepper(cfg)
		if err != nil {
			t.Fatal(err)
		}
		holdsNone(name + " stepper built")
		for s := 0; !st.Done(); s++ {
			if observe != nil {
				observe(s)
			}
			if _, err := st.Step(); err != nil {
				t.Fatal(err)
			}
			holdsNone(fmt.Sprintf("%s slot %d", name, s))
		}
	}

	batch, err := rn.StepperConfig(scens[0])
	if err != nil {
		t.Fatal(err)
	}
	stepAll("batch", batch, nil)

	live, feed, err := rn.LiveStepperConfig(scens[0])
	if err != nil {
		t.Fatal(err)
	}
	stepAll("live", live, func(s int) {
		abs := g.HistoryDays*trace.SamplesPerDay + s*trace.SamplesPerSlot
		cpu := make([][]float64, len(batch.Trace.VMs))
		mem := make([][]float64, len(batch.Trace.VMs))
		for v, vm := range batch.Trace.VMs {
			cpu[v] = vm.CPU[abs : abs+trace.SamplesPerSlot]
			mem[v] = vm.Mem[abs : abs+trace.SamplesPerSlot]
		}
		if err := feed.Observe(s, cpu, mem); err != nil {
			t.Fatal(err)
		}
	})

	var wg sync.WaitGroup
	rows := make([]RunResult, len(scens))
	for i := range scens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rows[i] = rn.CachedExec(scens[i], nil, nil)
		}()
	}
	wg.Wait()
	for _, r := range rows {
		if r.Err != "" {
			t.Fatal(r.Err)
		}
	}
	holdsNone("after the sibling rows")
}
