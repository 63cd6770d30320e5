package experiments

import (
	"errors"

	"repro/internal/power"
)

// Fig1Point is one (frequency, power) sample of a Fig. 1 curve.
type Fig1Point struct {
	FreqGHz float64
	PowerKW float64

	// Servers is the number of turned-on servers behind the point.
	Servers int
}

// Fig1Series is one utilisation-rate curve.
type Fig1Series struct {
	UtilPct int
	Points  []Fig1Point
}

// Fig1Result reproduces Fig. 1(a) or 1(b): worst-case data-center
// power under different utilisation rates for CPU-bound tasks.
type Fig1Result struct {
	Label string

	// Series runs over the 10%..90% utilisation rates.
	Series []Fig1Series

	// OptimalFreqGHz[i] is the power-minimising frequency of series i.
	OptimalFreqGHz []float64
}

// fig1 sweeps the DVFS range for each utilisation rate on the given
// pool. Infeasible points (demand exceeding the pool at that
// frequency) are omitted, which is why high-utilisation curves start
// at higher frequencies — the effect that moves the optimum to the
// minimum feasible frequency beyond ≈50% utilisation (Section V-A).
func fig1(model *power.ServerModel, servers int, label string) (*Fig1Result, error) {
	dc := &power.DataCenter{Servers: servers, Model: model}
	res := &Fig1Result{Label: label}
	for util := 10; util <= 90; util += 10 {
		s := Fig1Series{UtilPct: util}
		for _, f := range model.DVFSGrid() {
			p, n, err := dc.WorstCasePower(float64(util)/100, f, true)
			if errors.Is(err, power.ErrInfeasible) {
				continue
			}
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Fig1Point{FreqGHz: f.GHz(), PowerKW: p.KW(), Servers: n})
		}
		fOpt, _, err := dc.OptimalWorstCaseFrequency(float64(util) / 100)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, s)
		res.OptimalFreqGHz = append(res.OptimalFreqGHz, fOpt.GHz())
	}
	return res, nil
}

// Fig1a reproduces Fig. 1(a): 80 NTC servers (F_max = 3.1 GHz).
func Fig1a() (*Fig1Result, error) {
	return fig1(power.NTCServer(), 80, "Fig1a-NTC")
}

// Fig1b reproduces Fig. 1(b): 80 non-NTC Intel E5-2620 servers
// (1.2-2.4 GHz), where consolidation at F_max is optimal.
func Fig1b() (*Fig1Result, error) {
	return fig1(power.IntelE5_2620(), 80, "Fig1b-nonNTC")
}
