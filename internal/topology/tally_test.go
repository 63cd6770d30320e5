package topology

import (
	"math"
	"testing"

	"repro/internal/dcsim"
)

// SeriesEPScore is the reference for Tally.EPScore: 1 − min/max over a
// whole energy series, 0 for an empty series and 1 for one that never
// burned anything.
func SeriesEPScore(slotMJ []float64) float64 {
	if len(slotMJ) == 0 {
		return 0
	}
	min, max := slotMJ[0], slotMJ[0]
	for _, e := range slotMJ[1:] {
		if e < min {
			min = e
		}
		if e > max {
			max = e
		}
	}
	if max <= 0 {
		return 1
	}
	return 1 - min/max
}

// tallyOf folds an energy series into a Tally, slot by slot.
func tallyOf(slotMJ []float64) Tally {
	var t Tally
	for _, e := range slotMJ {
		t.Add(&Charges{EnergyMJ: e})
	}
	return t
}

// TestSlotFoldMatchesResult recomputes a run's per-DC and fleet
// aggregates from its SlotSteps alone — carbon priced slot by slot
// from each DC's energy and active-server series, MeanActive,
// PeakActive, the EP score through SeriesEPScore and the violation,
// migration and cross-DC migration counts — and requires Result to
// match bit for bit: the tallies Step keeps are exactly the fold of
// the series it returns, boundary and drain charges included.
func TestSlotFoldMatchesResult(t *testing.T) {
	cases := []struct {
		name, fleet string
		reb         RebalanceSpec
		days        int
		drained     bool // some DC must drain for an epoch after hosting VMs
	}{
		{"triad-static", "triad", RebalanceSpec{}, 2, false},
		{"triad-epoch4-greedy-drains", "uniform@triad", RebalanceSpec{EverySlots: 4, Dispatcher: "greedy-proportional"}, 2, true},
		{"carbon-greedy-triad-carbon-epoch6", "carbon-greedy@triad-carbon", RebalanceSpec{EverySlots: 6}, 2, false},
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := stepperConfig(t, c.fleet, c.reb, dcsim.DefaultTransitions(), c.days)
			st, err := NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			models := st.models
			res, steps := runSteps(t, c.name, cfg)
			slots := float64(len(steps))

			fleetMJ := make([]float64, len(steps))
			var fleetActive, fleetPeak int
			var fleetCounts [3]int
			for s, step := range steps {
				fleetMJ[s] = step.EnergyMJ
				if !same(step.EnergyMJ, res.PerSlot[s].EnergyMJ) {
					t.Fatalf("slot %d energy %v != PerSlot %v", s, step.EnergyMJ, res.PerSlot[s].EnergyMJ)
				}
				fleetActive += step.ActiveServers
				fleetPeak = max(fleetPeak, step.ActiveServers)
				fleetCounts[0] += step.Violations
				fleetCounts[1] += step.Migrations
				fleetCounts[2] += step.CrossDCMigrations
			}
			var op, emb float64
			sawDrain := false
			for i, run := range res.DCs {
				mj := make([]float64, len(steps))
				var dcOp, dcEmb float64
				var active, peak int
				var counts [3]int
				hosted := false
				for s, step := range steps {
					d := step.DCs[i]
					mj[s] = d.EnergyMJ
					dcOp += d.EnergyMJ / mjPerKWh * models[i].carbon.intensity.At(s%24)
					dcEmb += float64(d.ActiveServers) * models[i].carbon.gPerServerHour
					active += d.ActiveServers
					peak = max(peak, d.ActiveServers)
					counts[0] += d.Violations
					counts[1] += d.Migrations
					counts[2] += d.CrossDCMigrations
					if d.VMs > 0 {
						hosted = true
					} else if hosted && d.ActiveServers == 0 && d.EnergyMJ > 0 {
						sawDrain = true // power-off energy billed to the boundary
					}
				}
				var ep float64
				if run.ITEnergyMJ > 0 {
					ep = SeriesEPScore(mj)
				}
				name := run.Name
				if !same(run.OperationalGCO2, dcOp) || !same(run.EmbodiedGCO2, dcEmb) {
					t.Errorf("DC %q carbon %v/%v, fold of the steps %v/%v", name, run.OperationalGCO2, run.EmbodiedGCO2, dcOp, dcEmb)
				}
				if !same(run.MeanActive, float64(active)/slots) || run.PeakActive != peak {
					t.Errorf("DC %q active mean %v peak %d, fold of the steps %v %d", name, run.MeanActive, run.PeakActive, float64(active)/slots, peak)
				}
				if !same(run.EPScore, ep) {
					t.Errorf("DC %q EP score %v, fold of the steps %v", name, run.EPScore, ep)
				}
				if got := [3]int{run.Violations, run.Migrations, run.CrossDCMigrations}; got != counts {
					t.Errorf("DC %q violations, migrations, cross-DC migrations %v, fold of the steps %v", name, got, counts)
				}
				op += dcOp
				emb += dcEmb
			}
			if c.drained && !sawDrain {
				t.Fatal("no DC drained for an epoch after hosting VMs: the case does not cover drain charges")
			}
			if !same(res.OperationalGCO2, op) || !same(res.EmbodiedGCO2, emb) {
				t.Errorf("fleet carbon %v/%v, fold of the steps %v/%v", res.OperationalGCO2, res.EmbodiedGCO2, op, emb)
			}
			if !same(res.MeanActive, float64(fleetActive)/slots) || res.PeakActive != fleetPeak {
				t.Errorf("fleet active mean %v peak %d, fold of the steps %v %d", res.MeanActive, res.PeakActive, float64(fleetActive)/slots, fleetPeak)
			}
			if ep := SeriesEPScore(fleetMJ); !same(res.EPScore, ep) {
				t.Errorf("fleet EP score %v, fold of the steps %v", res.EPScore, ep)
			}
			if got := [3]int{res.Violations, res.Migrations, res.CrossDCMigrations}; got != fleetCounts {
				t.Errorf("fleet violations, migrations, cross-DC migrations %v, fold of the steps %v", got, fleetCounts)
			}
		})
	}
}
