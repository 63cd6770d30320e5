package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
)

// conservationPolicies mirrors the sweep engine's policy registry
// (sweep.PolicyNames), which this package cannot import.
var conservationPolicies = []struct {
	name string
	new  func(m power.Model) (alloc.Policy, error)
}{
	{"EPACT", func(m power.Model) (alloc.Policy, error) { return &alloc.EPACT{Model: m}, nil }},
	{"COAT", func(m power.Model) (alloc.Policy, error) { return alloc.NewCOAT(specOf(m)), nil }},
	{"COAT-OPT", func(m power.Model) (alloc.Policy, error) {
		return alloc.NewCOATOPT(specOf(m), m.OptimalFrequency()), nil
	}},
	{"FFD", func(power.Model) (alloc.Policy, error) { return &alloc.FFD{}, nil }},
	{"Verma-binary", func(power.Model) (alloc.Policy, error) { return alloc.NewVerma(), nil }},
	{"load-balance", func(power.Model) (alloc.Policy, error) { return &alloc.LoadBalance{}, nil }},
}

func specOf(m power.Model) alloc.ServerSpec {
	return alloc.ServerSpec{Cores: m.NumCores(), MemContainers: m.MemGB(), FMax: m.FreqMax(), FMin: m.FreqMin()}
}

// TestFleetConservation is the conservation post-condition on every
// FleetResult, over random trace seeds × {triad, triad-carbon} × every
// dispatcher × rebalance {off, epoch:k@random dispatcher} × power
// model × policy, on small traces:
//
//   - per-DC energy, violations, migrations, cross-DC migrations and
//     operational and embodied grams sum to the fleet totals;
//   - the per-slot energy series sums to the total energy, and the
//     per-slot, per-DC grams (slot kWh × the DC's intensity at that
//     hour) sum to the operational grams;
//   - no DC runs more servers than its pool in any slot.
//
// Counts must match exactly. Float sums must agree to 1e-9 relative
// (absolute below 1e-12): the fleet accumulates in boundary and
// dispatch order and the test in DC and slot order, and float addition
// is not associative, but a few hundred additions drift by ~1e-14,
// while a dropped or double-counted charge is orders larger.
func TestFleetConservation(t *testing.T) {
	const vms = 30
	rng := rand.New(rand.NewPCG(2018, 18))
	dispatchers := DispatcherNames()
	for _, ref := range []string{"triad", "triad-carbon"} {
		for _, disp := range dispatchers {
			for _, rebalance := range []bool{false, true} {
				for _, model := range power.ModelNames() {
					for _, pol := range conservationPolicies {
						seed := rng.Int64N(1 << 31)
						var reb RebalanceSpec
						if rebalance {
							reb = RebalanceSpec{EverySlots: 1 + rng.IntN(12), Dispatcher: dispatchers[rng.IntN(len(dispatchers))]}
						}
						name := fmt.Sprintf("%s@%s/%s/%s/%s/seed%d", disp, ref, reb, model, pol.name, seed)
						tr := testTrace(t, seed, vms, 2)
						ps, err := dcsim.Predict(tr, nil, 1, 1)
						if err != nil {
							t.Fatal(err)
						}
						fleet, err := Spec{Dispatcher: disp, Ref: ref}.Load()
						if err != nil {
							t.Fatal(err)
						}
						checkConservation(t, name, Config{
							Fleet:                    fleet,
							Trace:                    tr,
							Predictions:              ps,
							HistoryDays:              1,
							EvalDays:                 1,
							MaxServers:               vms,
							PowerModel:               model,
							NewPolicy:                pol.new,
							Transitions:              dcsim.DefaultTransitions(),
							Rebalance:                reb,
							MigrationDowntimeSamples: DefaultMigrationDowntimeSamples,
						})
					}
				}
			}
		}
	}
}

func checkConservation(t *testing.T, name string, cfg Config) {
	t.Helper()
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	slotGrams := 0.0
	for !st.Done() {
		s, err := st.Step()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, d := range s.DCs {
			if pool := st.fleet.DCs[i].Servers; d.ActiveServers > pool {
				t.Errorf("%s: slot %d: DC %s runs %d servers, pool %d", name, s.Slot, d.Name, d.ActiveServers, pool)
			}
			slotGrams += d.EnergyMJ / mjPerKWh * st.carbon[i].intensity.At(s.Slot%24)
		}
	}
	res, err := st.Result()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var energy, op, emb float64
	var viol, mig, cross int
	for _, dc := range res.DCs {
		energy += dc.EnergyMJ
		op += dc.OperationalGCO2
		emb += dc.EmbodiedGCO2
		viol += dc.Violations
		mig += dc.Migrations
		cross += dc.CrossDCMigrations
	}
	series := 0.0
	for _, e := range res.SlotEnergyMJ {
		series += e
	}
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"per-DC energy", energy, res.TotalEnergyMJ},
		{"slot energy series", series, res.TotalEnergyMJ},
		{"per-DC operational grams", op, res.OperationalGCO2},
		{"per-slot operational grams", slotGrams, res.OperationalGCO2},
		{"per-DC embodied grams", emb, res.EmbodiedGCO2},
	} {
		if math.Abs(c.got-c.want) > math.Max(1e-9*math.Max(math.Abs(c.got), math.Abs(c.want)), 1e-12) {
			t.Errorf("%s: %s sum to %v, fleet total %v", name, c.what, c.got, c.want)
		}
	}
	for _, c := range []struct {
		what      string
		got, want int
	}{
		{"violations", viol, res.Violations},
		{"migrations", mig, res.Migrations},
		{"cross-DC migrations", cross, res.CrossDCMigrations},
	} {
		if c.got != c.want {
			t.Errorf("%s: per-DC %s sum to %d, fleet total %d", name, c.what, c.got, c.want)
		}
	}
	if res.TotalEnergyMJ <= 0 {
		t.Errorf("%s: fleet consumed no energy", name)
	}
}
