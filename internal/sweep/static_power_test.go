package sweep

import (
	"math"
	"testing"
)

// TestStaticPowerMetamorphic checks two relations that must hold when
// only a scenario's per-server static power changes:
//
//   - COAT, FFD and load-balance place without reading the power
//     model, so every slot's active servers, violations and
//     migrations stay fixed, and each slot's energy moves by exactly
//     ΔW × active × 3600 s. Summed over the run that is
//     ΔE = ΔW × mean_active × slots × 3600 s.
//   - EPACT prices its choices, so costlier idle servers never make
//     it keep more of them on: its mean active count does not rise as
//     static power rises.
func TestStaticPowerMetamorphic(t *testing.T) {
	statics := []float64{15, 25, 35}
	seeds := []int64{2018, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	res, err := Run(Grid{
		Policies:     []string{"COAT", "FFD", "load-balance", "EPACT"},
		VMs:          []int{120},
		MaxServers:   []int{120},
		HistoryDays:  2,
		EvalDays:     2,
		Seeds:        seeds,
		StaticPowerW: statics,
		Predictors:   []string{"oracle"},
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Failed(); err != nil {
		t.Fatal(err)
	}

	// Rows of one (policy, seed) in static-power order.
	type group struct {
		policy string
		seed   int64
	}
	rows := map[group][]RunResult{}
	for _, r := range res.Runs {
		g := group{r.Scenario.Policy, r.Scenario.Seed}
		rows[g] = append(rows[g], r)
	}

	// relBound is about 10x the worst relative error seen over these
	// seeds (rounding: the run sums slot energies that each carry the
	// static term, the prediction multiplies once).
	const relBound = 1e-13
	worst, worstSlot := 0.0, 0.0
	for g, rs := range rows {
		if len(rs) != len(statics) {
			t.Fatalf("%v: %d rows, want %d", g, len(rs), len(statics))
		}
		for i := 1; i < len(rs); i++ {
			prev, cur := rs[i-1], rs[i]
			if cur.Scenario.StaticPowerW <= prev.Scenario.StaticPowerW {
				t.Fatalf("%v: rows not in static-power order", g)
			}
			if g.policy == "EPACT" {
				if cur.MeanActive > prev.MeanActive {
					t.Errorf("EPACT seed %d: mean active rose %.6f -> %.6f as static power rose %g -> %g W",
						g.seed, prev.MeanActive, cur.MeanActive, prev.Scenario.StaticPowerW, cur.Scenario.StaticPowerW)
				}
				continue
			}
			if cur.Violations != prev.Violations || cur.Migrations != prev.Migrations ||
				cur.MeanActive != prev.MeanActive || cur.PeakActive != prev.PeakActive {
				t.Errorf("%s seed %d: placement moved with static power %g -> %g W: %+v vs %+v",
					g.policy, g.seed, prev.Scenario.StaticPowerW, cur.Scenario.StaticPowerW, prev, cur)
				continue
			}
			dw := cur.Scenario.StaticPowerW - prev.Scenario.StaticPowerW
			ps, cs := prev.Fleet.PerSlot, cur.Fleet.PerSlot
			for k := range cs {
				p, c := ps[k], cs[k]
				if c.ActiveServers != p.ActiveServers || c.Violations != p.Violations || c.Migrations != p.Migrations {
					t.Errorf("%s seed %d slot %d: placement moved with static power", g.policy, g.seed, k)
				}
				want := dw * float64(c.ActiveServers) * 3600 / 1e6
				d := math.Abs(c.EnergyMJ - p.EnergyMJ - want)
				if want > 0 {
					worstSlot = math.Max(worstSlot, d/want)
				}
				if d > relBound*want {
					t.Errorf("%s seed %d slot %d: ΔE = %.12g MJ, want %.12g", g.policy, g.seed, k, c.EnergyMJ-p.EnergyMJ, want)
				}
			}
			want := dw * cur.MeanActive * float64(cur.Slots) * 3600 / 1e6
			rel := math.Abs(cur.TotalEnergyMJ-prev.TotalEnergyMJ-want) / want
			worst = math.Max(worst, rel)
			if rel > relBound {
				t.Errorf("%s seed %d: ΔE = %.9f MJ, want ΔW × mean_active × slots × 3600 s = %.9f MJ (rel. error %.2g)",
					g.policy, g.seed, cur.TotalEnergyMJ-prev.TotalEnergyMJ, want, rel)
			}
		}
	}
	t.Logf("worst relative error of ΔE over %d seeds: %.3g per run, %.3g per slot", len(seeds), worst, worstSlot)
}
