// Package fdsoi models the process-technology layer of the paper's
// power characterisation: the voltage/frequency relationship of 28nm
// UTBB FD-SOI including its near-threshold region, leakage scaling
// with supply voltage, and a bulk-CMOS reference technology for the
// non-NTC comparison server.
//
// The FD-SOI curve follows the published silicon references the paper
// builds on: a dual-core Cortex-A9 in 28nm UTBB FD-SOI running 1 GHz
// at 0.6 V and 3 GHz at 1.3 V (Jacquet et al., JSSC 2014), extended
// into the near-threshold region with the PULPv2 template (Rossi et
// al., IEEE Micro 2017), which reaches a few hundred MHz below 0.5 V.
package fdsoi

import (
	"fmt"

	"repro/internal/mathx"
	"repro/internal/units"
)

// Tech describes a process technology operating envelope: the minimum
// supply voltage needed for each clock frequency, the nominal voltage
// used as the reference point for energy scaling, and the leakage
// behaviour around that point.
type Tech struct {
	// Name identifies the technology in reports (e.g. "28nm UTBB FD-SOI").
	Name string

	// vf maps frequency in GHz to the minimum supply voltage in volts.
	vf *mathx.PiecewiseLinear

	// VNom is the nominal supply voltage: leakage and dynamic-energy
	// scale factors are 1 at VNom.
	VNom units.Voltage

	// VThreshold is the transistor threshold voltage; supply points
	// within NearThresholdBand of it count as near-threshold operation.
	VThreshold units.Voltage

	// NearThresholdBand is the voltage band above VThreshold regarded
	// as the NTC region.
	NearThresholdBand units.Voltage

	// LeakageExpV0 controls how steeply leakage grows with voltage:
	// scale = (V/VNom) * exp((V-VNom)/LeakageExpV0). FD-SOI's
	// back-biased transistors give a gentle slope; bulk HP is steeper.
	LeakageExpV0 units.Voltage

	// FMin and FMax delimit the frequencies the technology can run.
	FMin, FMax units.Frequency

	// UTBB marks ultra-thin body and buried oxide devices, whose body
	// acts as an efficient back gate: they support the wide body-bias
	// range (±1 V) and the strong ≈85 mV/V body effect; bulk devices
	// are limited to ±0.3 V at ≈25 mV/V.
	UTBB bool
}

// FDSOI28 returns the 28nm UTBB FD-SOI technology model used for the
// proposed NTC server. Knot points follow the published silicon
// measurements cited by the paper (see package comment); the
// near-threshold region sits below roughly 0.6 V / 1 GHz.
func FDSOI28() *Tech {
	return &Tech{
		Name: "28nm UTBB FD-SOI",
		vf: mathx.MustPiecewiseLinear(
			[]float64{0.10, 0.30, 0.50, 1.00, 1.50, 2.00, 2.50, 3.10},
			[]float64{0.45, 0.47, 0.50, 0.60, 0.70, 0.80, 0.95, 1.30},
		),
		VNom:              0.60,
		VThreshold:        0.35,
		NearThresholdBand: 0.25,
		LeakageExpV0:      0.25,
		FMin:              units.GHz(0.1),
		FMax:              units.GHz(3.1),
		UTBB:              true,
	}
}

// Bulk32 returns a conventional 32nm bulk high-performance technology
// model representative of the Intel E5-2620 class server used as the
// non-NTC comparison point (Fig. 1b). Its usable voltage range is much
// narrower and it cannot operate near threshold.
func Bulk32() *Tech {
	return &Tech{
		Name: "32nm bulk HP",
		vf: mathx.MustPiecewiseLinear(
			[]float64{1.20, 1.60, 2.00, 2.40},
			[]float64{0.90, 0.95, 1.00, 1.05},
		),
		VNom:              1.00,
		VThreshold:        0.45,
		NearThresholdBand: 0.15,
		LeakageExpV0:      0.15,
		FMin:              units.GHz(1.2),
		FMax:              units.GHz(2.4),
	}
}

// VoltageAt returns the minimum supply voltage that sustains clock
// frequency f, extrapolating linearly just outside the characterised
// range (callers should stay within [FMin, FMax]).
func (t *Tech) VoltageAt(f units.Frequency) units.Voltage {
	return units.Voltage(t.vf.At(f.GHz()))
}

// DynamicEnergyScale returns the dynamic energy-per-cycle scale factor
// at frequency f relative to nominal voltage: (V/VNom)^2, the
// quadratic supply-voltage dependency NTC exploits.
func (t *Tech) DynamicEnergyScale(f units.Frequency) float64 {
	r := float64(t.VoltageAt(f)) / float64(t.VNom)
	return r * r
}

// LeakageScale returns the leakage power scale factor at frequency f
// relative to nominal voltage. The model combines the linear V term of
// P = V*Ileak with an exponential DIBL-like dependence on V.
func (t *Tech) LeakageScale(f units.Frequency) float64 {
	v := float64(t.VoltageAt(f))
	vn := float64(t.VNom)
	return (v / vn) * mathx.Exp((v-vn)/float64(t.LeakageExpV0))
}

// InNearThresholdRegion reports whether running at frequency f puts
// the supply voltage inside the near-threshold band.
func (t *Tech) InNearThresholdRegion(f units.Frequency) bool {
	return t.VoltageAt(f) <= t.VThreshold+t.NearThresholdBand
}

// VoltageRange returns the supply voltages at FMin and FMax: the
// "ultra-wide voltage range" FD-SOI is prized for.
func (t *Tech) VoltageRange() (lo, hi units.Voltage) {
	return t.VoltageAt(t.FMin), t.VoltageAt(t.FMax)
}

func (t *Tech) String() string {
	lo, hi := t.VoltageRange()
	return fmt.Sprintf("%s [%v..%v @ %v..%v]", t.Name, t.FMin, t.FMax, lo, hi)
}
