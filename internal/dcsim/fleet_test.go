package dcsim_test

import (
	"runtime/debug"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestRebalancedFleetMemoisesOnlyTheRoot: a rebalanced triad run opens
// a fresh per-DC view of the trace at every epoch, and every one of
// them must find the root's validation in the memo instead of adding
// its own entry. GC is off during the run so a view memoised and then
// dropped mid-run would still show.
func TestRebalancedFleetMemoisesOnlyTheRoot(t *testing.T) {
	tcfg := trace.DefaultConfig(5)
	tcfg.VMs, tcfg.Days = 48, 2
	tr, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := topology.Spec{Ref: "triad"}.Load()
	if err != nil {
		t.Fatal(err)
	}
	reb, err := topology.ParseRebalanceSpec("epoch:4@greedy-proportional")
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	res, err := topology.Run(topology.Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    1,
		MaxServers:  48,
		NewPolicy:   func(m power.Model) (alloc.Policy, error) { return &alloc.EPACT{Model: m}, nil },
		Transitions: dcsim.DefaultTransitions(),
		Rebalance:   reb,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossDCMigrations == 0 {
		t.Fatal("the rebalancer moved no VM; the run opened no second view of any DC")
	}
	got := dcsim.MemoisedUnder(tr)
	if len(got) != 1 || got[0] != tr {
		t.Fatalf("memo holds %d live entries under the root, want exactly the root's own", len(got))
	}
}
