package dcsim_test

import (
	"testing"

	"repro/internal/dcsim"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/sweep"
)

// TestSlotLoopAllocationFree pins the zero-allocation contract of the
// steady-state slot loop for every registered policy, answered through
// a sweep Runner's allocation memo as every sweep row is. Once slots 0
// and 1 are in the memo, stepping them in turn is a memo hit that
// unpacks into the run's own Assignment buffer, and the demand
// windows and the columnar replay run in run-scoped buffers: no step
// allocates. Under default transitions each step also prices the move
// from the other slot's assignment, which the run's migration matcher
// counts without allocating.
func TestSlotLoopAllocationFree(t *testing.T) {
	g := sweep.Grid{Policies: sweep.PolicyNames(), VMs: []int{30}, MaxServers: []int{30},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"}}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := sweep.Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	model := power.NTCServer()
	tables, err := dcsim.NewTables(model, platform.NTCServer())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scens {
		fleet, err := rn.StepperConfig(s)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := fleet.NewPolicy(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, tm := range []dcsim.TransitionModel{dcsim.ZeroTransitions(), dcsim.DefaultTransitions()} {
			st, err := tables.NewStepper(dcsim.Config{
				Trace: fleet.Trace, Predictions: fleet.Predictions,
				HistoryDays: fleet.HistoryDays, EvalDays: fleet.EvalDays,
				Policy: pol, MaxServers: 600, Transitions: tm,
			})
			if err != nil {
				t.Fatal(err)
			}
			for slot := range 2 {
				if _, err := dcsim.StepSlot(st, slot); err != nil {
					t.Fatal(err)
				}
			}
			hits := rn.LoadStats().SharedPlacements
			slot, migrations := 0, 0
			allocs := testing.AllocsPerRun(50, func() {
				res, err := dcsim.StepSlot(st, slot%2)
				if err != nil {
					t.Fatal(err)
				}
				slot++
				migrations += res.Migrations
			})
			if got := rn.LoadStats().SharedPlacements - hits; got != int64(slot) {
				t.Errorf("%s: %d of %d steps hit the memo", s.Policy, got, slot)
			}
			if tm != dcsim.ZeroTransitions() && migrations == 0 {
				t.Errorf("%s: no migrations priced between slots 0 and 1", s.Policy)
			}
			if allocs != 0 {
				t.Errorf("%s (transitions %+v): slot loop allocates %.0f times per step, want 0", s.Policy, tm, allocs)
			}
		}
	}
}
