package topology

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/dcsim"
)

// TestCloneContinuesBitExact forks mid-run fleet steppers — static
// and epoch-rebalanced (mid-epoch), with transition pricing — and
// checks that clone and original continue identically and
// independently: every remaining SlotStep is equal and the final
// FleetResults are DeepEqual.
func TestCloneContinuesBitExact(t *testing.T) {
	cases := []struct {
		name  string
		fleet string
		reb   RebalanceSpec
		fork  int
	}{
		{"single-static", "single", RebalanceSpec{}, 10},
		{"triad-static", "triad", RebalanceSpec{}, 10},
		{"triad-epoch4-mid-epoch", "uniform@triad", RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}, 10},
		{"triad-epoch5-boundary", "triad", RebalanceSpec{EverySlots: 5}, 15},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st, err := NewStepper(stepperConfig(t, c.fleet, c.reb, dcsim.DefaultTransitions(), 2))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.fork; i++ {
				if _, err := st.Step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			clone, err := st.Clone()
			if err != nil {
				t.Fatal(err)
			}
			for !st.Done() {
				want, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				got, err := clone.Step()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("clone diverged at slot %d:\noriginal %+v\nclone    %+v", want.Slot, want, got)
				}
			}
			if !clone.Done() {
				t.Fatal("clone not done when original is")
			}
			a, err := st.Result()
			if err != nil {
				t.Fatal(err)
			}
			b, err := clone.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatal("finished FleetResults differ between original and clone")
			}
		})
	}
}

// TestCloneUnderTDPMatchesRun pins the power-model axis's placement
// invariance across forks: a clone of a `tdp` stepper rebuilds its
// policies against each DC's native model, as the batch run plans, so
// the forked run finishes DeepEqual to Run — static and rebalanced.
// The fleets put every VM of the fork's epoch on one NTC DC, where
// planning against the tdp model would change EPACT's placement.
func TestCloneUnderTDPMatchesRun(t *testing.T) {
	cases := []struct {
		name  string
		fleet string
		reb   RebalanceSpec
	}{
		{"single-static", "single", RebalanceSpec{}},
		{"triad-static", "greedy-proportional@triad", RebalanceSpec{}},
		{"triad-epoch12", "uniform@triad", RebalanceSpec{EverySlots: 12, Dispatcher: "greedy-proportional"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := stepperConfig(t, c.fleet, c.reb, dcsim.DefaultTransitions(), 2)
			cfg.PowerModel = "tdp"
			batch, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 14; i++ {
				if _, err := st.Step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			clone, err := st.Clone()
			if err != nil {
				t.Fatal(err)
			}
			for !clone.Done() {
				if _, err := clone.Step(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := clone.Result()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, batch) {
				t.Fatalf("forked tdp run differs from batch: %.6f MJ, mean active %.4f; batch %.6f MJ, mean active %.4f",
					got.TotalEnergyMJ, got.MeanActive, batch.TotalEnergyMJ, batch.MeanActive)
			}
		})
	}
}

// TestCloneMatchesFreshWindow pins the fork acceptance contract at
// the fleet level: under the paper-faithful (zero) transition model a
// clone taken at slot k is bit-exact with a fresh dcsim run windowed
// over [k, end) via StartSlot/InitialActiveServers — the same
// construction the epoch rebalancer uses.
func TestCloneMatchesFreshWindow(t *testing.T) {
	cfg := stepperConfig(t, "single", RebalanceSpec{}, dcsim.TransitionModel{}, 2)
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const fork = 13
	carried := 0
	for i := 0; i < fork; i++ {
		step, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		carried = step.ActiveServers
	}
	clone, err := st.Clone()
	if err != nil {
		t.Fatal(err)
	}

	dc := st.Fleet().DCs[0]
	fresh := replayDC(t, cfg, dc, st.ep.asg[0], fork, carried)
	for i := 0; !clone.Done(); i++ {
		got, err := clone.Step()
		if err != nil {
			t.Fatal(err)
		}
		want := fresh[i]
		if got.Slot != want.Slot || got.EnergyMJ != want.Energy.MJ()*dc.PUE ||
			got.ActiveServers != want.ActiveServers || got.Violations != want.Violations {
			t.Fatalf("fork slot %d differs from fresh window:\nfresh %+v\nclone %+v", got.Slot, want, got)
		}
	}
}

// gateSource is a test SlotSource: slots below ready are released.
type gateSource struct{ ready int }

func (g *gateSource) SlotReady(s int) bool { return s < g.ready }

// TestSourceGateDoesNotPerturb drives a rebalanced fleet stepper
// through a slot source that releases one slot at a time, hitting the
// ErrAwaitingSamples refusal before every slot, and checks the gated
// run still reproduces the ungated batch result bit-exactly — the
// refusal advances nothing and poisons nothing, including across
// epoch boundaries.
func TestSourceGateDoesNotPerturb(t *testing.T) {
	batch, err := Run(stepperConfig(t, "triad", RebalanceSpec{EverySlots: 4}, dcsim.DefaultTransitions(), 1))
	if err != nil {
		t.Fatal(err)
	}

	gate := &gateSource{}
	cfg := stepperConfig(t, "triad", RebalanceSpec{EverySlots: 4}, dcsim.DefaultTransitions(), 1)
	cfg.Source = gate
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; !st.Done(); s++ {
		if _, err := st.Step(); !errors.Is(err, dcsim.ErrAwaitingSamples) {
			t.Fatalf("slot %d: stepping an unreleased slot: err = %v, want ErrAwaitingSamples", s, err)
		}
		gate.ready = s + 1
		if _, err := st.Step(); err != nil {
			t.Fatalf("slot %d after release: %v", s, err)
		}
	}
	res, err := st.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, batch) {
		t.Fatal("gated run differs from batch run")
	}
}
