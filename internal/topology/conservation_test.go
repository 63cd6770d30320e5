package topology

import (
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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

// TestDoublingIntensityDoublesOnlyOperationalGrams is a metamorphic
// relation on the carbon layer. triad-carbon sets an explicit
// intensity profile on every DC; doubling every profile must leave
// every energy, violation and migration number and the slot series
// bit-identical, exactly double the operational grams (fleet, per DC
// and per slot step), and leave the embodied grams unchanged. Both
// sides are exact: doubling a float is exact, a sum of doubled terms
// is the doubled sum, and carbon-greedy ranks DCs by PUE × intensity,
// an order doubling preserves — so dispatch is the same and nothing
// may drift, not even by an ulp.
func TestDoublingIntensityDoublesOnlyOperationalGrams(t *testing.T) {
	const vms = 30
	tr := testTrace(t, 2018, vms, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, disp := range DispatcherNames() {
		for _, reb := range []RebalanceSpec{{}, {EverySlots: 4, Dispatcher: "carbon-greedy"}} {
			for _, model := range power.ModelNames() {
				for _, pol := range conservationPolicies {
					name := fmt.Sprintf("%s@triad-carbon/%s/%s/%s", disp, reb, model, pol.name)
					fleet, err := Spec{Dispatcher: disp, Ref: "triad-carbon"}.Load()
					if err != nil {
						t.Fatal(err)
					}
					doubled := fleet
					doubled.DCs = slices.Clone(fleet.DCs)
					for i := range doubled.DCs {
						dc := &doubled.DCs[i]
						if !dc.GridIntensitySet {
							t.Fatalf("%s: DC %s has no explicit intensity", name, dc.Name)
						}
						dc.GridIntensity = slices.Clone(dc.GridIntensity)
						for h := range dc.GridIntensity {
							dc.GridIntensity[h] *= 2
						}
					}
					cfg := Config{
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
					}
					want, wantSteps := runSteps(t, name, cfg)
					cfg.Fleet = doubled
					got, gotSteps := runSteps(t, name, cfg)
					if want.OperationalGCO2 <= 0 || want.EmbodiedGCO2 <= 0 {
						t.Fatalf("%s: no grams to scale (%v operational, %v embodied)", name, want.OperationalGCO2, want.EmbodiedGCO2)
					}

					// The expected doubled run: the base run with its
					// operational grams doubled and the doubled fleet.
					want.Fleet = got.Fleet
					want.OperationalGCO2 *= 2
					for i := range want.DCs {
						want.DCs[i].Spec = got.DCs[i].Spec
						want.DCs[i].OperationalGCO2 *= 2
					}
					for s := range wantSteps {
						wantSteps[s].OperationalGCO2 *= 2
						for i := range wantSteps[s].DCs {
							wantSteps[s].DCs[i].OperationalGCO2 *= 2
						}
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: doubled-intensity result differs beyond doubled operational grams:\n got %+v\nwant %+v", name, got, want)
					}
					if !reflect.DeepEqual(gotSteps, wantSteps) {
						t.Errorf("%s: doubled-intensity slot steps differ beyond doubled operational grams", name)
					}
				}
			}
		}
	}
}

// TestDrainedDCChangesNothing is a metamorphic relation on dispatch
// and rebalancing: adding a fourth, `"share": 0` NTC DC to a triad
// fleet file must change no number. Over every dispatcher × rebalance
// {off, epoch:4@greedy-proportional, epoch:4@follow-the-load,
// epoch:6@carbon-greedy} × {EPACT, COAT}, every fleet total, every
// triad DC's numbers and every slot step are bit-identical to the
// plain triad file's, and the drained DC reports zero.
func TestDrainedDCChangesNothing(t *testing.T) {
	const vms = 30
	tr := testTrace(t, 2018, vms, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	triad := `{"name": "triad", "dcs": [
  {"name": "core", "share": 0.5, "pue": 1.12, "latency_ms": 40},
  {"name": "metro", "share": 0.3, "pue": 1.25, "latency_ms": 15, "static_power_w": 25},
  {"name": "edge", "share": 0.2, "pue": 1.5, "latency_ms": 5, "server": "conventional"}`
	dir := t.TempDir()
	plainFile, drainedFile := filepath.Join(dir, "triad.json"), filepath.Join(dir, "triad-drained.json")
	for file, body := range map[string]string{
		plainFile:   triad + "]}\n",
		drainedFile: triad + ",\n  {\"name\": \"spare\", \"share\": 0}]}\n",
	} {
		if err := os.WriteFile(file, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	load := func(disp, file string) Fleet {
		spec, err := ParseSpec(disp + "@" + file)
		if err != nil {
			t.Fatal(err)
		}
		fleet, err := spec.Load()
		if err != nil {
			t.Fatal(err)
		}
		return fleet
	}
	for _, disp := range DispatcherNames() {
		for _, rebSpec := range []string{"off", "epoch:4@greedy-proportional", "epoch:4@follow-the-load", "epoch:6@carbon-greedy"} {
			reb, err := ParseRebalanceSpec(rebSpec)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range conservationPolicies[:2] { // EPACT, COAT
				name := fmt.Sprintf("%s@triad/%s/%s", disp, rebSpec, pol.name)
				cfg := Config{
					Fleet:                    load(disp, plainFile),
					Trace:                    tr,
					Predictions:              ps,
					HistoryDays:              1,
					EvalDays:                 1,
					MaxServers:               vms,
					PowerModel:               "ntc",
					NewPolicy:                pol.new,
					Transitions:              dcsim.DefaultTransitions(),
					Rebalance:                reb,
					MigrationDowntimeSamples: DefaultMigrationDowntimeSamples,
				}
				want, wantSteps := runSteps(t, name, cfg)
				cfg.Fleet = load(disp, drainedFile)
				got, gotSteps := runSteps(t, name, cfg)
				if want.TotalEnergyMJ <= 0 || len(got.DCs) != 4 {
					t.Fatalf("%s: %v MJ over %d DCs, want energy on a 4-DC fleet", name, want.TotalEnergyMJ, len(got.DCs))
				}

				// The expected drained-fleet run: the plain run with the
				// drained fleet and a zero fourth DC.
				spare := got.DCs[3]
				if spare.Spec.Name != "spare" || spare.Spec.Share != 0 {
					t.Fatalf("%s: fourth DC is %+v, want the drained spare", name, spare.Spec)
				}
				want.Fleet = got.Fleet
				want.DCs = append(want.DCs, DCRun{Spec: spare.Spec})
				for s := range wantSteps {
					wantSteps[s].DCs = append(wantSteps[s].DCs, DCSlotStep{Name: "spare"})
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: adding a drained DC changed the result:\n got %+v\nwant %+v", name, got, want)
				}
				if !reflect.DeepEqual(gotSteps, wantSteps) {
					t.Errorf("%s: adding a drained DC changed the slot steps", name)
				}
			}
		}
	}
}

// runSteps steps a fleet run to completion, keeping every slot step.
func runSteps(t *testing.T, name string, cfg Config) (*FleetResult, []SlotStep) {
	t.Helper()
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var steps []SlotStep
	for !st.Done() {
		s, err := st.Step()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		steps = append(steps, s)
	}
	res, err := st.Result()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res, steps
}
