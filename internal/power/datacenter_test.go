package power

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/units"
)

func ntcDC80() *DataCenter { return &DataCenter{Servers: 80, Model: NTCServer()} }

func TestCapacityCoreGHz(t *testing.T) {
	dc := ntcDC80()
	want := 80.0 * 16 * 3.1
	if got := dc.CapacityCoreGHz(); math.Abs(got-want) > 1e-6 {
		t.Errorf("capacity = %v, want %v", got, want)
	}
}

func TestServersForDemand(t *testing.T) {
	dc := ntcDC80()
	// At F_max, serving 50% of max capacity takes 50% of the servers.
	if n := dc.ServersForDemand(0.5, units.GHz(3.1)); n != 40 {
		t.Errorf("servers at 50%%/FMax = %d, want 40", n)
	}
	// At half the frequency, twice the servers.
	if n := dc.ServersForDemand(0.5, units.GHz(1.55)); n != 80 {
		t.Errorf("servers at 50%%/1.55GHz = %d, want 80", n)
	}
}

func TestFig1aOptimumNear1point9AtLowUtil(t *testing.T) {
	// Below ~60% utilisation the optimal frequency stays near the
	// server's own optimum ≈1.9 GHz. Integer server counts (ceil)
	// can shift the discrete optimum by a level or two, so we assert
	// the band [1.6, 2.1] GHz and, more tellingly, that running the
	// whole pool at exactly 1.9 GHz costs within 8% of the discrete
	// optimum (the ceil() can waste up to 1/N of the pool, ≈7.7% at
	// the 13 servers a 10% demand needs).
	dc := ntcDC80()
	for _, util := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		f, pOpt, err := dc.OptimalWorstCaseFrequency(util)
		if err != nil {
			t.Fatalf("util %.0f%%: %v", util*100, err)
		}
		if f.GHz() < 1.6-1e-9 || f.GHz() > 2.1+1e-9 {
			t.Errorf("util %.0f%%: optimal f = %v, want ≈1.9 GHz (band [1.6, 2.1])", util*100, f)
		}
		p19, _, err := dc.WorstCasePower(util, units.GHz(1.9), true)
		if err != nil {
			t.Fatal(err)
		}
		if p19.W() > pOpt.W()*1.08 {
			t.Errorf("util %.0f%%: power at 1.9 GHz %.0f W exceeds optimum %.0f W by >8%%",
				util*100, p19.W(), pOpt.W())
		}
	}
}

func TestFig1aOptimumIsMinFeasibleAtHighUtil(t *testing.T) {
	// Beyond the ratio F_opt/F_max (~61%), the optimum becomes the
	// minimum feasible frequency — the paper's ">50% utilisation"
	// observation.
	dc := ntcDC80()
	for _, util := range []float64{0.7, 0.8, 0.9} {
		f, _, err := dc.OptimalWorstCaseFrequency(util)
		if err != nil {
			t.Fatalf("util %.0f%%: %v", util*100, err)
		}
		minF, err := dc.MinFeasibleFrequency(util)
		if err != nil {
			t.Fatal(err)
		}
		if f != minF {
			t.Errorf("util %.0f%%: optimal f = %v, want min feasible %v", util*100, f, minF)
		}
		// And the min feasible frequency is ≈ util×FMax.
		if got, want := minF.GHz(), util*3.1; math.Abs(got-want) > 0.11 {
			t.Errorf("util %.0f%%: min feasible = %.2f GHz, want ≈%.2f", util*100, got, want)
		}
	}
}

func TestConsolidationSuboptimalForNTC(t *testing.T) {
	// Consolidation = fewest servers at F_max. For the NTC DC this
	// costs substantially more than the optimum (the paper's Fig. 1a
	// argument, with 30-45% headroom at mid utilisations).
	dc := ntcDC80()
	for _, util := range []float64{0.2, 0.4} {
		pMax, _, err := dc.WorstCasePower(util, dc.Model.FMax, true)
		if err != nil {
			t.Fatal(err)
		}
		_, pOpt, err := dc.OptimalWorstCaseFrequency(util)
		if err != nil {
			t.Fatal(err)
		}
		saving := 1 - pOpt.W()/pMax.W()
		if saving < 0.30 {
			t.Errorf("util %.0f%%: optimal saves %.0f%% vs consolidation, want >= 30%%", util*100, saving*100)
		}
	}
}

func TestConsolidationOptimalForNonNTC(t *testing.T) {
	// Fig. 1b: for the conventional DC, running at F_max (fewest
	// servers) minimises power at every utilisation level.
	dc := &DataCenter{Servers: 80, Model: IntelE5_2620()}
	for _, util := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		f, _, err := dc.OptimalWorstCaseFrequency(util)
		if err != nil {
			t.Fatal(err)
		}
		if f != dc.Model.FMax {
			t.Errorf("util %.0f%%: optimal f = %v, want FMax", util*100, f)
		}
	}
}

func TestWorstCasePowerScalesWithUtil(t *testing.T) {
	dc := ntcDC80()
	f := units.GHz(1.9)
	prev := units.Power(0)
	for util := 0.1; util <= 0.6; util += 0.1 {
		p, _, err := dc.WorstCasePower(util, f, true)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Fatalf("power decreased when utilisation rose to %.0f%%", util*100)
		}
		prev = p
	}
}

func TestWorstCasePowerInfeasible(t *testing.T) {
	dc := ntcDC80()
	// 90% demand at 0.3 GHz would need ~744 servers.
	_, n, err := dc.WorstCasePower(0.9, units.GHz(0.3), true)
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
	if n <= 80 {
		t.Errorf("needed servers = %d, want > 80", n)
	}
	// Uncapped mode reports the hypothetical power instead.
	p, _, err := dc.WorstCasePower(0.9, units.GHz(0.3), false)
	if err != nil || p <= 0 {
		t.Errorf("uncapped = (%v, %v), want positive power", p, err)
	}
}

func TestWorstCasePowerBadUtil(t *testing.T) {
	dc := ntcDC80()
	if _, _, err := dc.WorstCasePower(-0.1, units.GHz(1), true); err == nil {
		t.Error("negative utilisation accepted")
	}
	if _, _, err := dc.WorstCasePower(1.1, units.GHz(1), true); err == nil {
		t.Error("utilisation > 1 accepted")
	}
}

func TestFig1aAbsoluteScale(t *testing.T) {
	// The paper's Fig. 1a y-axis tops out around 10-12 kW for 80
	// servers at 90% utilisation and F_max.
	dc := ntcDC80()
	p, _, err := dc.WorstCasePower(0.9, dc.Model.FMax, true)
	if err != nil {
		t.Fatal(err)
	}
	if kw := p.KW(); kw < 8 || kw > 14 {
		t.Errorf("90%% @ FMax = %.1f kW, want in [8, 14]", kw)
	}
}

// MinFeasibleFrequency returns the lowest DVFS level at which the
// demand fits on the available servers.
func (dc *DataCenter) MinFeasibleFrequency(utilRate float64) (units.Frequency, error) {
	for _, f := range dc.Model.DVFSGrid() {
		if dc.ServersForDemand(utilRate, f) <= dc.Servers {
			return f, nil
		}
	}
	return 0, fmt.Errorf("%w: utilisation %.2f unservable even at FMax", ErrInfeasible, utilRate)
}
