package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/topology"
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
	m.ahead = true
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
		return m.wrap("EPACT", model, cp, row), nil
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
