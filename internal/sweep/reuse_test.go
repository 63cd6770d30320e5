package sweep

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/topology"
)

// TestEpochReuseWithdrawWaitsForPacks: a fleet refills its per-DC
// prediction views at every epoch boundary, and a lookahead helper
// packs a claimed slot's demands from those views outside the memo's
// lock. The test claims a slot of the first epoch's window as a helper
// does and holds the claim, unpacked, while the fleet steps through
// that epoch's end and the next boundary, beside a real helper packing
// the other windows. Withdraw must hold the stepper until the claimed
// pack ends, so the pack reads the views of the epoch it claimed, not
// the next epoch's.
func TestEpochReuseWithdrawWaitsForPacks(t *testing.T) {
	g := Grid{Policies: []string{"FFD"}, VMs: []int{60}, MaxServers: []int{60},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"},
		Topologies: []string{"uniform@triad"}, Rebalances: []string{"epoch:3@follow-the-load"}}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	m := rn.memo
	row := &aheadRow{}
	defer m.endRow(row)
	cfg, _, err := rn.fleetConfig(scens[0], row)
	if err != nil {
		t.Fatal(err)
	}
	st, err := topology.NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}

	win, s, ok := m.claim(false)
	if !ok {
		t.Fatal("no slot of the first epoch is claimable")
	}
	var want dcsim.SlotDemands
	wantVMs := cloneDemands(win.w.Demands(s, &want))

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

	// The stepper crosses the boundary at slot 3, where the next epoch
	// refills the views, unless Withdraw holds it at the end of slot 2.
	stepped := make(chan error, 1)
	go func() {
		for range 6 {
			if _, err := st.Step(); err != nil {
				stepped <- err
				return
			}
		}
		stepped <- nil
	}()
	crossed := false
	select {
	case err := <-stepped:
		if err != nil {
			t.Fatal(err)
		}
		crossed = true
	case <-time.After(200 * time.Millisecond):
	}

	var got dcsim.SlotDemands
	gotVMs := win.w.Demands(s, &got)
	m.packed(win)
	if e := m.reserve(win, s, m.key(win.pol.prefix, gotVMs, win.w.Spec)); e != nil {
		t.Fatalf("reserved slot %d after its stepper passed it", s)
	}
	if crossed {
		t.Error("the fleet opened its next epoch while a helper held a claim on the last one's window")
	}
	if !reflect.DeepEqual(gotVMs, wantVMs) {
		t.Errorf("a helper packing slot %d read views the next epoch had refilled", s)
	}
	if !crossed {
		if err := <-stepped; err != nil {
			t.Fatal(err)
		}
	}
}

// cloneDemands deep-copies packed demands.
func cloneDemands(vms []alloc.VMDemand) []alloc.VMDemand {
	out := slices.Clone(vms)
	for i := range out {
		out[i].CPU = slices.Clone(out[i].CPU)
		out[i].Mem = slices.Clone(out[i].Mem)
	}
	return out
}
