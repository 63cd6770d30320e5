package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTableIMatchesPaper(t *testing.T) {
	// Paper's Table I (seconds).
	want := []struct {
		workload                string
		x86, limit, cavium, ntc float64
	}{
		{"low-mem", 0.437, 0.873, 0.733, 0.582},
		{"mid-mem", 1.564, 3.127, 5.035, 2.926},
		{"high-mem", 3.455, 6.909, 11.943, 6.765},
	}
	res := TableI()
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i, w := range want {
		r := res.Rows[i]
		if r.Workload != w.workload {
			t.Errorf("row %d workload = %s, want %s", i, r.Workload, w.workload)
		}
		for _, c := range []struct{ got, want float64 }{
			{r.X86, w.x86}, {r.QoSLimit, w.limit}, {r.Cavium, w.cavium}, {r.NTC, w.ntc},
		} {
			if math.Abs(c.got-c.want)/c.want > 0.01 {
				t.Errorf("row %s: got %.3f, want %.3f (±1%%)", w.workload, c.got, c.want)
			}
		}
		if r.SpeedupVsCavium < 1.2 || r.SpeedupVsCavium > 1.85 {
			t.Errorf("row %s: speedup %.2f outside the paper's 1.25-1.76x band", w.workload, r.SpeedupVsCavium)
		}
	}
}

func TestFig1aOptimaNear19GHz(t *testing.T) {
	res, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	// Below 50% utilisation, optima sit near 1.9 GHz.
	lo, hi := res.OptimalBand(50)
	if lo < 1.5 || hi > 2.2 {
		t.Errorf("low-util optimal band = [%.1f, %.1f] GHz, want ≈1.9", lo, hi)
	}
	// Above ~60% the optimum rises towards the minimum feasible
	// frequency (u × F_max).
	for i, s := range res.Series {
		if s.UtilPct < 70 {
			continue
		}
		wantMin := float64(s.UtilPct) / 100 * 3.1 * 0.95
		if res.OptimalFreqGHz[i] < wantMin {
			t.Errorf("util %d%%: optimal %.1f GHz below feasibility bound %.2f",
				s.UtilPct, res.OptimalFreqGHz[i], wantMin)
		}
	}
	// Every series' power at the optimum beats consolidation at F_max.
	for i, s := range res.Series {
		var pOpt, pMax float64
		for _, p := range s.Points {
			if p.FreqGHz == res.OptimalFreqGHz[i] {
				pOpt = p.PowerKW
			}
			if p.FreqGHz == 3.1 {
				pMax = p.PowerKW
			}
		}
		if pOpt <= 0 || pMax <= 0 {
			t.Fatalf("util %d%%: missing sweep points", s.UtilPct)
		}
		if pOpt >= pMax {
			t.Errorf("util %d%%: optimum %.2f kW not below F_max %.2f kW", s.UtilPct, pOpt, pMax)
		}
	}
}

func TestFig1bConsolidationOptimal(t *testing.T) {
	res, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.Series {
		if math.Abs(res.OptimalFreqGHz[i]-2.4) > 1e-9 {
			t.Errorf("util %d%%: non-NTC optimum = %.1f GHz, want F_max 2.4", s.UtilPct, res.OptimalFreqGHz[i])
		}
	}
}

func TestFig2CrossoversAndShape(t *testing.T) {
	res, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if got := res.MinQoSFreqGHz["low-mem"]; math.Abs(got-1.2) > 0.05 {
		t.Errorf("low-mem crossover = %.2f GHz, want 1.2", got)
	}
	for _, c := range []string{"mid-mem", "high-mem"} {
		if got := res.MinQoSFreqGHz[c]; math.Abs(got-1.8) > 0.05 {
			t.Errorf("%s crossover = %.2f GHz, want 1.8", c, got)
		}
	}
	// Normalised time at 0.1 GHz is an order of magnitude above the
	// limit (Fig. 2's y-axis reaches ~35).
	for c, series := range res.Normalized {
		if series[0] < 4 {
			t.Errorf("%s at 0.1 GHz = %.1f, want >> 1", c, series[0])
		}
		last := series[len(series)-1]
		if last > 1 {
			t.Errorf("%s at 2.5 GHz = %.2f, want <= 1 (meets QoS)", c, last)
		}
	}
}

func TestFig3EfficiencyPeaks(t *testing.T) {
	res, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	// Section VI-B2: optimum ≈1.5 GHz for low/mid-mem, ≈1.2 GHz for
	// high-mem (we allow one plotted point of slack).
	if p := res.PeakFreqGHz["low-mem"]; p < 1.2 || p > 2.0 {
		t.Errorf("low-mem efficiency peak = %.1f GHz, want ≈1.5", p)
	}
	if p := res.PeakFreqGHz["mid-mem"]; p < 1.2 || p > 2.0 {
		t.Errorf("mid-mem efficiency peak = %.1f GHz, want ≈1.5", p)
	}
	if p := res.PeakFreqGHz["high-mem"]; p < 0.8 || p > 1.6 {
		t.Errorf("high-mem efficiency peak = %.1f GHz, want ≈1.2", p)
	}
	// Efficiency decreases with memory intensity (Fig. 3's ordering)
	// and the absolute scale matches the paper's 0.05-0.30 BUIPS/W.
	peak := func(c string) float64 {
		best := 0.0
		for _, e := range res.Efficiency[c] {
			if e > best {
				best = e
			}
		}
		return best
	}
	lo, mi, hi := peak("low-mem"), peak("mid-mem"), peak("high-mem")
	if !(lo > mi && mi > hi) {
		t.Errorf("efficiency ordering violated: %.3f, %.3f, %.3f", lo, mi, hi)
	}
	if lo < 0.15 || lo > 0.45 {
		t.Errorf("low-mem peak efficiency = %.3f BUIPS/W, want ≈0.30", lo)
	}
	if hi < 0.03 || hi > 0.20 {
		t.Errorf("high-mem peak efficiency = %.3f BUIPS/W, want ≈0.10", hi)
	}
}

// smallDC returns a reduced-scale config that keeps test time low
// while preserving the paper's qualitative shapes.
func smallDC() DCConfig {
	cfg := DefaultDCConfig()
	cfg.VMs = 150
	cfg.EvalDays = 2
	return cfg
}

func TestFig4to6PaperShapes(t *testing.T) {
	week, err := Fig4to6(smallDC())
	if err != nil {
		t.Fatal(err)
	}
	s := week.Summary

	// Fig. 5: COAT activates substantially fewer servers (paper: 37%).
	if s.COATServerReductionPct < 25 || s.COATServerReductionPct > 50 {
		t.Errorf("COAT server reduction = %.0f%%, want ≈37%%", s.COATServerReductionPct)
	}
	// Fig. 6: EPACT saves substantially vs COAT (paper: up to 45%).
	if s.BestSlotSavingVsCOATPct < 30 {
		t.Errorf("best-slot saving vs COAT = %.0f%%, want >= 30%%", s.BestSlotSavingVsCOATPct)
	}
	if s.WeeklySavingVsCOATPct < 25 {
		t.Errorf("weekly saving vs COAT = %.0f%%, want >= 25%%", s.WeeklySavingVsCOATPct)
	}
	// EPACT must not lose to COAT-OPT by more than noise (paper: 10%
	// ahead; our shared per-slot re-allocation narrows this to ≈0).
	if s.WeeklySavingVsCOATOPTPct < -5 {
		t.Errorf("weekly saving vs COAT-OPT = %.0f%%, want >= -5%%", s.WeeklySavingVsCOATOPTPct)
	}
	// Fig. 4: drastic violation reduction.
	if week.TotalViol["EPACT"]*100 >= week.TotalViol["COAT"] {
		t.Errorf("EPACT violations %d not drastically below COAT %d",
			week.TotalViol["EPACT"], week.TotalViol["COAT"])
	}
	// Consolidation runs at F_max; EPACT near the NTC optimum.
	if f := week.PlannedFreqGHz["COAT"]; math.Abs(f-3.1) > 1e-6 {
		t.Errorf("COAT planned frequency = %.2f, want 3.1", f)
	}
	if f := week.PlannedFreqGHz["EPACT"]; f < 1.7 || f > 2.2 {
		t.Errorf("EPACT mean planned frequency = %.2f, want ≈1.9", f)
	}
}

func TestFig7SavingShrinksWithStaticPower(t *testing.T) {
	cfg := smallDC()
	cfg.UseARIMA = false // oracle: isolates the static-power effect
	res, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (5..45 W)", len(res.Rows))
	}
	// The paper's message: EPACT's saving decreases as static power
	// grows (consolidation recovers ground).
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	if first.SavingPct <= last.SavingPct {
		t.Errorf("saving should shrink with static power: %.1f%% @5W vs %.1f%% @45W",
			first.SavingPct, last.SavingPct)
	}
	if first.SavingPct < 30 {
		t.Errorf("saving at 5 W = %.1f%%, want >= 30%%", first.SavingPct)
	}
	// And EPACT's own optimal frequency rises with static power
	// (Section VI-C3).
	if last.EPACTPlannedFreqGHz < first.EPACTPlannedFreqGHz {
		t.Errorf("EPACT planned frequency should rise with static power: %.2f -> %.2f",
			first.EPACTPlannedFreqGHz, last.EPACTPlannedFreqGHz)
	}
}

func TestRenderersProduceOutput(t *testing.T) {
	var buf bytes.Buffer
	tbl := TableI()
	if err := tbl.Render(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("TableI render: %v, %d bytes", err, buf.Len())
	}
	if !strings.Contains(tbl.CSV(), "low-mem") {
		t.Error("TableI CSV missing rows")
	}

	f1, err := Fig1a()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f1.Render(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("Fig1 render: %v", err)
	}
	if !strings.Contains(f1.CSV(), "util_pct") {
		t.Error("Fig1 CSV missing header")
	}

	f2, err := Fig2()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f2.Render(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("Fig2 render: %v", err)
	}
	f3, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f3.Render(&buf); err != nil || buf.Len() == 0 {
		t.Errorf("Fig3 render: %v", err)
	}
	if !strings.Contains(f2.CSV(), "freq_ghz") || !strings.Contains(f3.CSV(), "freq_ghz") {
		t.Error("Fig2/Fig3 CSV missing header")
	}
}

// OptimalBand returns the min and max optimal frequency across the
// series below the given utilisation (used to verify the ≈1.9 GHz
// plateau).
func (r *Fig1Result) OptimalBand(maxUtilPct int) (lo, hi float64) {
	lo, hi = 1e9, 0
	for i, s := range r.Series {
		if s.UtilPct > maxUtilPct {
			continue
		}
		f := r.OptimalFreqGHz[i]
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	return lo, hi
}
