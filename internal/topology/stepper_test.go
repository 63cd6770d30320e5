package topology

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dcsim"
	"repro/internal/trace"
)

// stepperConfig builds a fleet run over days evaluated days (plus one
// history day) — the week-long cases drive 168 slots, the shape the
// live service ticks.
func stepperConfig(t *testing.T, fleetSpec string, reb RebalanceSpec, trans dcsim.TransitionModel, days int) Config {
	t.Helper()
	tr := testTrace(t, 2018, 48, days+1)
	ps, err := dcsim.Predict(tr, nil, 1, days)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec(fleetSpec)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    days,
		MaxServers:  48,
		NewPolicy:   newTestPolicy,
		Transitions: trans,
		Rebalance:   reb,
	}
}

// TestStepperMatchesRun is the live service's bit-exactness property:
// advancing the fleet stepper one slot at a time — over a full week,
// on `single` and `triad`, static and epoch-rebalanced, with and
// without transition pricing — concatenates exactly to the batch run.
// The aggregate FleetResult must be DeepEqual (every float bit-equal),
// and the per-slot live views must reproduce the batch energy series
// bit-for-bit and sum to the batch counters.
func TestStepperMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		fleet string
		reb   RebalanceSpec
		trans dcsim.TransitionModel
		days  int
	}{
		{"single-static-week", "single", RebalanceSpec{}, dcsim.TransitionModel{}, 7},
		{"single-epoch4-takes-static-path", "single", RebalanceSpec{EverySlots: 4}, dcsim.DefaultTransitions(), 2},
		{"triad-static-default-trans", "triad", RebalanceSpec{}, dcsim.DefaultTransitions(), 2},
		{"triad-epoch4-greedy-week", "uniform@triad", RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}, dcsim.DefaultTransitions(), 7},
		{"triad-epoch5-ragged-tail", "triad", RebalanceSpec{EverySlots: 5}, dcsim.DefaultTransitions(), 1},
		{"triad-epoch4-zero-trans", "uniform@triad", RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}, dcsim.TransitionModel{}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			batch, err := Run(stepperConfig(t, c.fleet, c.reb, c.trans, c.days))
			if err != nil {
				t.Fatal(err)
			}

			st, err := NewStepper(stepperConfig(t, c.fleet, c.reb, c.trans, c.days))
			if err != nil {
				t.Fatal(err)
			}
			if st.Slots() != batch.Slots {
				t.Fatalf("stepper spans %d slots, batch ran %d", st.Slots(), batch.Slots)
			}
			if _, err := st.Result(); err == nil {
				t.Fatal("Result before Done succeeded")
			}

			var steps []SlotStep
			for !st.Done() {
				s, err := st.Step()
				if err != nil {
					t.Fatalf("step %d: %v", len(steps), err)
				}
				steps = append(steps, s)
			}
			if _, err := st.Step(); err == nil {
				t.Fatal("stepping past the run succeeded")
			}
			res, err := st.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, batch) {
				t.Fatalf("stepped aggregate differs from batch:\nstepped %+v\nbatch   %+v", res, batch)
			}
			if again, _ := st.Result(); again != res {
				t.Fatal("second Result call rebuilt the aggregate")
			}

			// The live per-slot views reproduce the batch series and
			// counters: energy bit-exact per slot, integer counters by
			// summation, the latency-weighted float to rounding only
			// (it sums per slot, the batch per DC-epoch).
			var viol, mig, cross, active, peak int
			var lw float64
			for i, s := range steps {
				if s.Slot != i {
					t.Fatalf("step %d reported slot %d", i, s.Slot)
				}
				if s.Charges != batch.PerSlot[i] {
					t.Fatalf("slot %d charges %+v != batch %+v", i, s.Charges, batch.PerSlot[i])
				}
				if len(s.DCs) != len(batch.DCs) {
					t.Fatalf("slot %d has %d DC views, fleet has %d", i, len(s.DCs), len(batch.DCs))
				}
				viol += s.Violations
				mig += s.Migrations
				cross += s.CrossDCMigrations
				active += s.ActiveServers
				lw += s.LatencyWeightedViol
				if s.ActiveServers > peak {
					peak = s.ActiveServers
				}
			}
			if viol != batch.Violations || mig != batch.Migrations || cross != batch.CrossDCMigrations {
				t.Errorf("summed counters (viol %d, mig %d, cross %d) != batch (%d, %d, %d)",
					viol, mig, cross, batch.Violations, batch.Migrations, batch.CrossDCMigrations)
			}
			if peak != batch.PeakActive {
				t.Errorf("peak active %d != batch %d", peak, batch.PeakActive)
			}
			if batch.Slots > 0 {
				if got := float64(active) / float64(batch.Slots); got != batch.MeanActive {
					t.Errorf("mean active %v != batch %v", got, batch.MeanActive)
				}
			}
			if math.Abs(lw-batch.LatencyWeightedViol) > 1e-9*(1+math.Abs(batch.LatencyWeightedViol)) {
				t.Errorf("latency-weighted viol %v != batch %v", lw, batch.LatencyWeightedViol)
			}

			// Per-DC sums reconcile with the per-DC batch rows.
			for d := range batch.DCs {
				var dcViol, dcMig, dcCross int
				var dcMJ float64
				for _, s := range steps {
					dcViol += s.DCs[d].Violations
					dcMig += s.DCs[d].Migrations
					dcCross += s.DCs[d].CrossDCMigrations
					dcMJ += s.DCs[d].EnergyMJ
				}
				b := batch.DCs[d]
				if dcViol != b.Violations || dcMig != b.Migrations || dcCross != b.CrossDCMigrations {
					t.Errorf("DC %q summed counters (viol %d, mig %d, cross %d) != batch (%d, %d, %d)",
						b.Spec.Name, dcViol, dcMig, dcCross, b.Violations, b.Migrations, b.CrossDCMigrations)
				}
				if math.Abs(dcMJ-b.EnergyMJ) > 1e-9*(1+math.Abs(b.EnergyMJ)) {
					t.Errorf("DC %q summed energy %v != batch %v", b.Spec.Name, dcMJ, b.EnergyMJ)
				}
			}
		})
	}
}

// TestNewStepperRejectsBadInputs: a trace without VMs, a non-positive
// history or evaluation window, or an unknown power model is an error
// up front — never an empty result, and never a panic sizing the
// per-slot series.
func TestNewStepperRejectsBadInputs(t *testing.T) {
	cases := map[string]func(*Config){
		"no-vms":            func(c *Config) { c.Trace = &trace.Trace{Interval: c.Trace.Interval} },
		"zero-eval-days":    func(c *Config) { c.EvalDays = 0 },
		"negative-eval":     func(c *Config) { c.EvalDays = -1 },
		"zero-history-days": func(c *Config) { c.HistoryDays = 0 },
		"unknown-power":     func(c *Config) { c.PowerModel = "warp" },
	}
	for name, mutate := range cases {
		for _, reb := range []RebalanceSpec{{}, {EverySlots: 4}} {
			cfg := stepperConfig(t, "triad", reb, dcsim.DefaultTransitions(), 1)
			mutate(&cfg)
			if _, err := NewStepper(cfg); err == nil {
				t.Errorf("%s, rebalance %s: NewStepper accepted it", name, reb)
			}
		}
	}
}
