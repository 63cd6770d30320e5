package sweep

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/dcsim"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/units"
)

// testGrid is the determinism workhorse: 6 policies × 2 transition
// models × 2 pool sizes = 24 scenarios over one shared trace, small
// enough (40 VMs, 1 day) to run three times in a few hundred ms.
func testGrid() Grid {
	return Grid{
		Policies:    PolicyNames(),
		VMs:         []int{40},
		MaxServers:  []int{40, 20},
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Transitions: []TransitionSpec{{Name: "none"}, {Name: "default"}},
	}
}

// TestDeterministicAcrossWorkerCounts is the engine's core contract:
// the emitted CSV and JSON are byte-identical whatever the worker
// count, so parallelism can never change results.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	var baseCSV string
	var baseJSON []byte
	for _, workers := range []int{1, 4, 8} {
		res, err := Run(testGrid(), Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != 24 {
			t.Fatalf("workers=%d: %d runs, want 24", workers, len(res.Runs))
		}
		csv := res.CSV()
		js, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			baseCSV, baseJSON = csv, js
			continue
		}
		if csv != baseCSV {
			t.Errorf("workers=%d: CSV differs from workers=1:\n%s\nvs\n%s", workers, csv, baseCSV)
		}
		if !bytes.Equal(js, baseJSON) {
			t.Errorf("workers=%d: JSON differs from workers=1", workers)
		}
	}
}

func TestLoaderSharesExpensiveInputs(t *testing.T) {
	res, err := Run(testGrid(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	// 24 scenarios, one (seed, vms, days, churn) combination: the
	// trace must be generated exactly once and the oracle prediction
	// set built exactly once.
	if res.Load.TraceBuilds != 1 {
		t.Errorf("TraceBuilds = %d, want 1", res.Load.TraceBuilds)
	}
	if res.Load.PredictBuilds != 1 {
		t.Errorf("PredictBuilds = %d, want 1", res.Load.PredictBuilds)
	}
	if res.Load.TraceRequests != 24 {
		t.Errorf("TraceRequests = %d, want 24", res.Load.TraceRequests)
	}
}

func TestRunMetricsMatchDirectSimulation(t *testing.T) {
	// A single-scenario sweep must agree with what the underlying
	// simulator reports (the RunResult aggregates are derived fields).
	g := Grid{
		Policies:   []string{"EPACT"},
		VMs:        []int{40},
		MaxServers: []int{40},
		EvalDays:   1,
		Seeds:      []int64{2018},
		Predictors: []string{"oracle"},
	}
	res, err := Run(g, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	r := res.Runs[0]
	if r.Fleet == nil {
		t.Fatal("Run result missing the full fleet result")
	}

	// The simulator's view: the scenario's inputs replayed by a plain
	// dcsim stepper on the NTC server, folded here in slot order.
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := rn.StepperConfig(r.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	model := power.NTCServer()
	pol, err := fleet.NewPolicy(model)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := dcsim.NewTables(model, platform.NTCServer())
	if err != nil {
		t.Fatal(err)
	}
	st, err := tables.NewStepper(dcsim.Config{
		Trace: fleet.Trace, Predictions: fleet.Predictions,
		HistoryDays: fleet.HistoryDays, EvalDays: fleet.EvalDays,
		Policy: pol, MaxServers: 40, Transitions: fleet.Transitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	var energy units.Energy
	var viol, activeSum, peak, slots int
	for ; !st.Done(); slots++ {
		slot, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		energy += slot.Energy
		viol += slot.Violations
		activeSum += slot.ActiveServers
		peak = max(peak, slot.ActiveServers)
	}
	if r.TotalEnergyMJ != energy.MJ() {
		t.Errorf("TotalEnergyMJ = %v, simulator says %v", r.TotalEnergyMJ, energy.MJ())
	}
	if mean := float64(activeSum) / float64(slots); r.Violations != viol || r.MeanActive != mean || r.PeakActive != peak {
		t.Errorf("aggregates diverge from simulator: %+v vs violations %d, mean active %v, peak %d", r, viol, mean, peak)
	}
	if r.Slots != 24 {
		t.Errorf("Slots = %d, want 24 (one day)", r.Slots)
	}
	if r.PredictorImpl != "oracle" {
		t.Errorf("PredictorImpl = %q, want oracle", r.PredictorImpl)
	}
}

func TestChurnScenariosReportAffectedVMs(t *testing.T) {
	res, err := Run(Grid{
		Policies:       []string{"EPACT"},
		VMs:            []int{40},
		MaxServers:     []int{40},
		EvalDays:       1,
		Seeds:          []int64{2018},
		Predictors:     []string{"oracle"},
		ChurnFractions: []float64{0, 0.5},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if got := res.Runs[0].ChurnAffectedVMs; got != 0 {
		t.Errorf("churn=0 affected %d VMs, want 0", got)
	}
	if got := res.Runs[1].ChurnAffectedVMs; got <= 0 {
		t.Errorf("churn=0.5 affected %d VMs, want > 0", got)
	}
	// Distinct churn levels need distinct traces.
	if res.Load.TraceBuilds != 2 {
		t.Errorf("TraceBuilds = %d, want 2 (one per churn level)", res.Load.TraceBuilds)
	}
}

func TestProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var dones []int
	res, err := Run(Grid{
		Policies:   []string{"EPACT", "COAT"},
		VMs:        []int{40},
		MaxServers: []int{40},
		EvalDays:   1,
		Seeds:      []int64{2018},
		Predictors: []string{"oracle"},
	}, Options{
		Workers: 2,
		Progress: func(done, total int, r *RunResult) {
			mu.Lock()
			defer mu.Unlock()
			if total != 2 {
				t.Errorf("total = %d, want 2", total)
			}
			if r == nil || r.Err != "" {
				t.Errorf("progress run = %+v, want success", r)
			}
			dones = append(dones, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}
	if len(dones) != 2 || dones[0] != 1 || dones[1] != 2 {
		t.Errorf("progress done sequence = %v, want [1 2]", dones)
	}
}

func TestSummaryMentionsSharingAndPolicies(t *testing.T) {
	res, err := Run(testGrid(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Summary(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"24 scenarios", "1 traces built for 24 requests", "EPACT", "load-balance"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}
