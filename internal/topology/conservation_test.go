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
	{"FFD", func(power.Model) (alloc.Policy, error) { return alloc.NewFFD(), nil }},
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
//   - no DC runs more servers than its pool in any slot;
//   - the fleet's DC count is its number of per-DC records.
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
							Fleet:       fleet,
							Trace:       tr,
							Predictions: ps,
							HistoryDays: 1,
							EvalDays:    1,
							MaxServers:  vms,
							PowerModel:  model,
							NewPolicy:   pol.new,
							Transitions: dcsim.DefaultTransitions(),
							Rebalance:   reb,
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
			slotGrams += d.EnergyMJ / mjPerKWh * st.models[i].carbon.intensity.At(s.Slot%24)
		}
	}
	res, err := st.Result()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.DCCount != len(res.DCs) || res.DCCount != len(cfg.Fleet.DCs) {
		t.Errorf("%s: DC count %d, %d per-DC records, fleet of %d", name, res.DCCount, len(res.DCs), len(cfg.Fleet.DCs))
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
	for _, c := range res.PerSlot {
		series += c.EnergyMJ
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
						Fleet:       fleet,
						Trace:       tr,
						Predictions: ps,
						HistoryDays: 1,
						EvalDays:    1,
						MaxServers:  vms,
						PowerModel:  model,
						NewPolicy:   pol.new,
						Transitions: dcsim.DefaultTransitions(),
						Rebalance:   reb,
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
						want.DCs[i].OperationalGCO2 *= 2
					}
					for s := range want.PerSlot {
						want.PerSlot[s].OperationalGCO2 *= 2
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
// plain triad file's, the DC count counts the drained DC, and the
// drained DC reports its name and pool and zero for everything else.
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
					Fleet:       load(disp, plainFile),
					Trace:       tr,
					Predictions: ps,
					HistoryDays: 1,
					EvalDays:    1,
					MaxServers:  vms,
					PowerModel:  "ntc",
					NewPolicy:   pol.new,
					Transitions: dcsim.DefaultTransitions(),
					Rebalance:   reb,
				}
				want, wantSteps := runSteps(t, name, cfg)
				cfg.Fleet = load(disp, drainedFile)
				got, gotSteps := runSteps(t, name, cfg)
				if want.TotalEnergyMJ <= 0 || len(got.DCs) != 4 {
					t.Fatalf("%s: %v MJ over %d DCs, want energy on a 4-DC fleet", name, want.TotalEnergyMJ, len(got.DCs))
				}

				// The expected drained-fleet run: the plain run with the
				// drained fleet and a zero fourth DC.
				spare := got.Fleet.DCs[3]
				if spare.Name != "spare" || spare.Share != 0 {
					t.Fatalf("%s: fourth DC is %+v, want the drained spare", name, spare)
				}
				if want.DCCount != 3 || got.DCCount != 4 {
					t.Errorf("%s: DC counts %d plain, %d drained; want 3 and 4", name, want.DCCount, got.DCCount)
				}
				want.Fleet = got.Fleet
				want.DCCount = 4
				want.DCs = append(want.DCs, DCRun{Name: spare.Name, Servers: spare.Servers})
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

// TestScalingPUEScalesOnlyFacilityEnergy is the PUE metamorphic
// relation: multiplying one DC's PUE by k multiplies that DC's facility
// energy and operational grams by k and changes nothing else — its IT
// energy, every allocation the policies make, violations, migrations,
// active servers and the other DCs' numbers stay bit-identical, and the
// fleet's energy grows by (k−1) × the DC's facility energy. k is a
// power of two, so scaling is exact and the DC's numbers may not drift
// by an ulp; the fleet total sums differently rounded terms and is
// compared at 1e-12 relative. carbon-greedy ranks DCs by PUE ×
// intensity, so its dispatch may rightly move; it is left out.
func TestScalingPUEScalesOnlyFacilityEnergy(t *testing.T) {
	const vms, k = 30, 2.0
	tr := testTrace(t, 2018, vms, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, disp := range DispatcherNames() {
		if disp == "carbon-greedy" {
			continue
		}
		for _, rebSpec := range []string{"off", "epoch:4@follow-the-load"} {
			reb, err := ParseRebalanceSpec(rebSpec)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range conservationPolicies[:2] { // EPACT, COAT
				fleet, err := Spec{Dispatcher: disp, Ref: "triad"}.Load()
				if err != nil {
					t.Fatal(err)
				}
				cfg := Config{
					Fleet:       fleet,
					Trace:       tr,
					Predictions: ps,
					HistoryDays: 1,
					EvalDays:    1,
					MaxServers:  vms,
					NewPolicy:   pol.new,
					Transitions: dcsim.DefaultTransitions(),
					Rebalance:   reb,
				}
				var wantAsg [][]int
				cfg.NewPolicy = recording(pol.new, &wantAsg)
				want, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if want.DCs[0].EnergyMJ <= 0 {
					t.Fatalf("%s@triad/%s/%s: the first DC burned nothing", disp, rebSpec, pol.name)
				}
				for i := range fleet.DCs {
					name := fmt.Sprintf("%s@triad/%s/%s/DC %s", disp, rebSpec, pol.name, fleet.DCs[i].Name)
					scaled := fleet
					scaled.DCs = slices.Clone(fleet.DCs)
					scaled.DCs[i].PUE *= k
					var gotAsg [][]int
					cfg.Fleet, cfg.NewPolicy = scaled, recording(pol.new, &gotAsg)
					got, err := Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotAsg, wantAsg) {
						t.Errorf("%s: scaling the PUE changed an allocation", name)
					}
					dc := want.DCs[i]
					dc.EnergyMJ *= k
					dc.OperationalGCO2 *= k
					if !reflect.DeepEqual(got.DCs[i], dc) {
						t.Errorf("%s: scaled DC differs beyond k × facility energy and grams:\n got %+v\nwant %+v", name, got.DCs[i], dc)
					}
					for j := range want.DCs {
						if j != i && !reflect.DeepEqual(got.DCs[j], want.DCs[j]) {
							t.Errorf("%s: DC %s changed", name, want.DCs[j].Name)
						}
					}
					if got.Violations != want.Violations || got.Migrations != want.Migrations ||
						got.CrossDCMigrations != want.CrossDCMigrations || got.MeanActive != want.MeanActive ||
						got.PeakActive != want.PeakActive || got.LatencyWeightedViol != want.LatencyWeightedViol ||
						got.MeanPlannedFreqGHz != want.MeanPlannedFreqGHz {
						t.Errorf("%s: fleet counts changed:\n got %+v\nwant %+v", name, got, want)
					}
					wantMJ := want.TotalEnergyMJ + (k-1)*want.DCs[i].EnergyMJ
					if d := math.Abs(got.TotalEnergyMJ - wantMJ); d > 1e-12*wantMJ {
						t.Errorf("%s: fleet energy %v MJ, want %v", name, got.TotalEnergyMJ, wantMJ)
					}
				}
			}
		}
	}
}

// recording wraps a policy factory so every assignment it returns is
// kept, in call order (DCs step in index order).
func recording(newPol func(power.Model) (alloc.Policy, error), out *[][]int) func(power.Model) (alloc.Policy, error) {
	return func(m power.Model) (alloc.Policy, error) {
		pol, err := newPol(m)
		return &assignmentRecorder{Policy: pol, out: out}, err
	}
}

// assignmentRecorder keeps each assignment's VM-to-server map.
type assignmentRecorder struct {
	alloc.Policy
	out *[][]int
}

func (r *assignmentRecorder) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	a, err := r.Policy.Allocate(vms, spec)
	if err == nil {
		*r.out = append(*r.out, slices.Clone(a.VMServer))
	}
	return a, err
}

// TestMovingThePopulationToATwinDC is the relocation metamorphic
// relation fleet sweeps rely on: in a two-DC fleet whose DCs share one
// server model but differ in name, PUE, grid intensity and latency,
// moving the whole population from DC north (shares 1/0) to DC south
// (0/1) leaves every allocation the policies make, the IT energy,
// violations, migrations and active servers bit-identical, per slot
// and in total. Only the facility energy follows the receiving DC's
// PUE: south's is twice north's, so every facility figure doubles
// exactly. Covers every dispatcher × rebalance {off, epoch:4} ×
// {EPACT, COAT}.
func TestMovingThePopulationToATwinDC(t *testing.T) {
	const vms = 30
	tr := testTrace(t, 2018, vms, 2)
	ps, err := dcsim.Predict(tr, nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	twins := func(disp string, northShare, southShare int) Fleet {
		f, err := ParseFleetJSON([]byte(fmt.Sprintf(`{"name": "twins", "dispatcher": %q, "dcs": [
  {"name": "north", "share": %d, "pue": 1.1, "grid_intensity": 30, "latency_ms": 5},
  {"name": "south", "share": %d, "pue": 2.2, "grid_intensity": 700, "latency_ms": 40}]}`,
			disp, northShare, southShare)))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, disp := range DispatcherNames() {
		for _, rebSpec := range []string{"off", "epoch:4"} {
			reb, err := ParseRebalanceSpec(rebSpec)
			if err != nil {
				t.Fatal(err)
			}
			for _, pol := range conservationPolicies[:2] { // EPACT, COAT
				name := fmt.Sprintf("%s@twins/%s/%s", disp, rebSpec, pol.name)
				cfg := Config{
					Fleet:       twins(disp, 1, 0),
					Trace:       tr,
					Predictions: ps,
					HistoryDays: 1,
					EvalDays:    1,
					MaxServers:  vms,
					Transitions: dcsim.DefaultTransitions(),
					Rebalance:   reb,
				}
				var wantAsg, gotAsg [][]int
				cfg.NewPolicy = recording(pol.new, &wantAsg)
				want, wantSteps := runSteps(t, name, cfg)
				cfg.Fleet, cfg.NewPolicy = twins(disp, 0, 1), recording(pol.new, &gotAsg)
				got, gotSteps := runSteps(t, name, cfg)

				if len(wantAsg) == 0 || !reflect.DeepEqual(gotAsg, wantAsg) {
					t.Errorf("%s: moving the population changed an allocation (%d vs %d calls)", name, len(gotAsg), len(wantAsg))
				}
				from, to, idleFrom, idleTo := want.DCs[0], got.DCs[1], got.DCs[0], want.DCs[1]
				if from.VMs != vms || to.VMs != vms || idleFrom.VMs != 0 || idleTo.VMs != 0 {
					t.Fatalf("%s: VMs placed %d→%d, drained %d/%d, want all %d on the active DC",
						name, from.VMs, to.VMs, idleFrom.VMs, idleTo.VMs, vms)
				}
				if to.ITEnergyMJ != from.ITEnergyMJ || to.Violations != from.Violations ||
					to.Migrations != from.Migrations || to.CrossDCMigrations != from.CrossDCMigrations ||
					to.MeanActive != from.MeanActive || to.PeakActive != from.PeakActive {
					t.Errorf("%s: the receiving DC differs beyond facility energy:\n got %+v\nwant %+v", name, to, from)
				}
				if idleFrom.ITEnergyMJ != 0 || idleTo.ITEnergyMJ != 0 {
					t.Errorf("%s: a drained DC burned IT energy", name)
				}
				if from.ITEnergyMJ <= 0 || to.EnergyMJ != 2*from.EnergyMJ || got.TotalEnergyMJ != 2*want.TotalEnergyMJ ||
					got.TransitionMJ != 2*want.TransitionMJ {
					t.Errorf("%s: facility energy %v (fleet %v) MJ, want twice %v (fleet %v)",
						name, to.EnergyMJ, got.TotalEnergyMJ, from.EnergyMJ, want.TotalEnergyMJ)
				}
				if got.Violations != want.Violations || got.Migrations != want.Migrations ||
					got.CrossDCMigrations != want.CrossDCMigrations || got.MeanActive != want.MeanActive ||
					got.PeakActive != want.PeakActive || got.MeanPlannedFreqGHz != want.MeanPlannedFreqGHz {
					t.Errorf("%s: fleet counts changed:\n got %+v\nwant %+v", name, got, want)
				}
				if len(gotSteps) != len(wantSteps) {
					t.Fatalf("%s: %d slot steps, want %d", name, len(gotSteps), len(wantSteps))
				}
				for i, w := range wantSteps {
					g := gotSteps[i]
					if g.ActiveServers != w.ActiveServers || g.Violations != w.Violations ||
						g.Migrations != w.Migrations || g.CrossDCMigrations != w.CrossDCMigrations ||
						g.EnergyMJ != 2*w.EnergyMJ {
						t.Errorf("%s: slot %d differs:\n got %+v\nwant %+v", name, w.Slot, g, w)
						break
					}
				}
			}
		}
	}
}
