package fdsoi

import (
	"errors"
	"fmt"

	"repro/internal/mathx"
	"repro/internal/units"
)

// Body biasing is the hallmark knob of UTBB FD-SOI: the ultra-thin
// buried oxide lets the body act as a second gate, so forward body
// bias (FBB) lowers the effective threshold — faster at the same
// voltage, at the price of more leakage — while reverse body bias
// (RBB) raises it — slower but dramatically less leaky. The PULPv2
// silicon the paper builds on uses exactly this to widen the
// near-threshold operating region.
//
// The model here is the standard first-order one: the threshold
// shifts linearly with the bias (ΔVth = -k·Vbb), which translates
// into an equivalent supply-voltage offset for the V/f relationship
// and an exponential leakage factor.

// BodyBias is the applied body-to-source bias in volts: positive =
// forward (FBB), negative = reverse (RBB).
type BodyBias float64

// Body-bias limits for UTBB FD-SOI (conventional wells support a much
// narrower range; flip-well LVT devices reach ±2 V — we model the
// conservative envelope the PULPv2 prototype used).
const (
	MaxForwardBias BodyBias = 1.0
	MaxReverseBias BodyBias = -1.0
)

// ErrBiasRange reports a bias outside the technology's envelope.
var ErrBiasRange = errors.New("fdsoi: body bias outside supported range")

// BiasedTech wraps a Tech with a body-bias operating point.
type BiasedTech struct {
	*Tech

	// Bias is the applied body bias.
	Bias BodyBias

	// vthShiftPerVolt is the threshold shift per volt of bias
	// (≈85 mV/V for UTBB FD-SOI, an order of magnitude above bulk's
	// ≈25 mV/V — the reason body bias is worth modelling here at all).
	vthShiftPerVolt float64

	// subthresholdSlope converts a threshold shift into a leakage
	// factor: leakage × exp(-ΔVth / S), with S ≈ 37 mV (a 90 mV/dec
	// subthreshold slope in natural-log units).
	subthresholdSlope float64
}

// WithBodyBias returns a biased view of the technology. Only FD-SOI
// technologies support the full range; bulk technologies reject
// anything beyond ±0.3 V (junction forward-conduction limit).
func (t *Tech) WithBodyBias(bias BodyBias) (*BiasedTech, error) {
	limF, limR := MaxForwardBias, MaxReverseBias
	vthShift := 0.085 // V per V, UTBB FD-SOI
	if !t.UTBB {
		// Bulk technologies: narrow usable bias window (junction
		// forward conduction) and a much weaker body effect.
		limF, limR = 0.3, -0.3
		vthShift = 0.025
	}
	if bias > limF || bias < limR {
		return nil, fmt.Errorf("%w: %.2f V (allowed [%.1f, %.1f])", ErrBiasRange, float64(bias), float64(limR), float64(limF))
	}
	return &BiasedTech{
		Tech:              t,
		Bias:              bias,
		vthShiftPerVolt:   vthShift,
		subthresholdSlope: 0.037,
	}, nil
}

// VthShift returns the threshold-voltage shift: negative under FBB.
func (b *BiasedTech) VthShift() units.Voltage {
	return units.Voltage(-b.vthShiftPerVolt * float64(b.Bias))
}

// VoltageAt returns the supply voltage needed for frequency f under
// the bias: FBB lowers the required supply by the threshold shift
// (clamped so it never goes below the shifted threshold).
func (b *BiasedTech) VoltageAt(f units.Frequency) units.Voltage {
	v := b.Tech.VoltageAt(f).V() + b.VthShift().V()
	floor := b.EffectiveThreshold().V() + 0.05
	return units.Voltage(mathx.Clamp(v, floor, 2.0))
}

// EffectiveThreshold returns the bias-shifted threshold voltage.
func (b *BiasedTech) EffectiveThreshold() units.Voltage {
	return b.Tech.VThreshold + b.VthShift()
}

// DynamicEnergyScale returns (V/VNom)² using the biased supply.
func (b *BiasedTech) DynamicEnergyScale(f units.Frequency) float64 {
	r := b.VoltageAt(f).V() / b.Tech.VNom.V()
	return r * r
}

// LeakageScale combines the supply-voltage leakage dependence with
// the exponential body-bias factor: FBB multiplies leakage, RBB
// divides it (the RBB retention trick of FD-SOI sleep states).
func (b *BiasedTech) LeakageScale(f units.Frequency) float64 {
	v := b.VoltageAt(f).V()
	vn := b.Tech.VNom.V()
	supply := (v / vn) * mathx.Exp((v-vn)/b.Tech.LeakageExpV0.V())
	bias := mathx.Exp(-b.VthShift().V() / b.subthresholdSlope)
	return supply * bias
}

// MaxFrequencyGain estimates the frequency uplift FBB buys at a fixed
// supply voltage: the supply headroom created by the threshold shift
// converted back through the local V/f slope.
func (b *BiasedTech) MaxFrequencyGain(f units.Frequency) float64 {
	if b.Bias <= 0 {
		return 1
	}
	// Local slope dV/df around f.
	df := units.GHz(0.05)
	v1 := b.Tech.VoltageAt(f).V()
	v2 := b.Tech.VoltageAt(f + df).V()
	slope := (v2 - v1) / df.GHz() // V per GHz
	if slope <= 0 {
		return 1
	}
	headroom := -b.VthShift().V() // positive under FBB
	return 1 + headroom/slope/f.GHz()
}
