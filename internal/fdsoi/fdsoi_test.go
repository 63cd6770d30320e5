package fdsoi

import (
	"math"
	"testing"

	"repro/internal/mathx"
	"repro/internal/units"
)

func TestFDSOI28PublishedSiliconPoints(t *testing.T) {
	// The paper's FD-SOI references: ~1 GHz at 0.6 V and ~3 GHz at
	// ~1.3 V (Jacquet et al.), with near-threshold operation below
	// ~0.5 V at a few hundred MHz (PULPv2).
	tech := FDSOI28()
	if v := tech.VoltageAt(units.GHz(1.0)); math.Abs(v.V()-0.60) > 1e-9 {
		t.Errorf("V(1GHz) = %v, want 0.60V", v)
	}
	if v := tech.VoltageAt(units.GHz(3.1)); math.Abs(v.V()-1.30) > 1e-9 {
		t.Errorf("V(3.1GHz) = %v, want 1.30V", v)
	}
	if v := tech.VoltageAt(units.GHz(0.3)); v.V() > 0.50 {
		t.Errorf("V(0.3GHz) = %v, want <= 0.50V (near threshold)", v)
	}
}

func TestVoltageMonotoneInFrequency(t *testing.T) {
	for _, tech := range []*Tech{FDSOI28(), Bulk32(), Bulk28Mobile()} {
		prev := tech.VoltageAt(tech.FMin)
		for g := tech.FMin.GHz(); g <= tech.FMax.GHz()+1e-9; g += 0.05 {
			v := tech.VoltageAt(units.GHz(g))
			if v < prev-1e-12 {
				t.Fatalf("%s: voltage decreased at %.2f GHz (%v -> %v)", tech.Name, g, prev, v)
			}
			prev = v
		}
	}
}

func TestFDSOIWiderVoltageRangeThanBulk(t *testing.T) {
	// FD-SOI's headline property: a much wider usable voltage range.
	fdsoiLo, fdsoiHi := FDSOI28().VoltageRange()
	bulkLo, bulkHi := Bulk32().VoltageRange()
	fdsoiSpan := fdsoiHi.V() - fdsoiLo.V()
	bulkSpan := bulkHi.V() - bulkLo.V()
	if fdsoiSpan <= 2*bulkSpan {
		t.Errorf("FD-SOI voltage span %.2fV not >2x bulk span %.2fV", fdsoiSpan, bulkSpan)
	}
}

func TestDynamicEnergyScaleQuadratic(t *testing.T) {
	tech := FDSOI28()
	// At nominal voltage (1 GHz -> 0.6 V = VNom) the scale is 1.
	if s := tech.DynamicEnergyScale(units.GHz(1.0)); math.Abs(s-1) > 1e-9 {
		t.Errorf("scale at VNom = %v, want 1", s)
	}
	// At 3.1 GHz (1.3 V) the scale is (1.3/0.6)^2.
	want := (1.3 / 0.6) * (1.3 / 0.6)
	if s := tech.DynamicEnergyScale(units.GHz(3.1)); math.Abs(s-want) > 1e-9 {
		t.Errorf("scale at 3.1GHz = %v, want %v", s, want)
	}
}

func TestNearThresholdRegionDetection(t *testing.T) {
	tech := FDSOI28()
	if !tech.InNearThresholdRegion(units.GHz(0.3)) {
		t.Error("0.3 GHz should be in the near-threshold region")
	}
	if !tech.InNearThresholdRegion(units.GHz(1.0)) {
		t.Error("1.0 GHz (0.6V) should be at the NTC boundary")
	}
	if tech.InNearThresholdRegion(units.GHz(2.5)) {
		t.Error("2.5 GHz should be well above the near-threshold region")
	}
	// Bulk32 can never reach near-threshold voltages.
	bulk := Bulk32()
	for g := bulk.FMin.GHz(); g <= bulk.FMax.GHz(); g += 0.1 {
		if bulk.InNearThresholdRegion(units.GHz(g)) {
			t.Errorf("bulk technology reported NTC operation at %.1f GHz", g)
		}
	}
}

func TestLeakageScaleBehaviour(t *testing.T) {
	tech := FDSOI28()
	// Scale is 1 at nominal.
	if s := tech.LeakageScale(units.GHz(1.0)); math.Abs(s-1) > 1e-9 {
		t.Errorf("leakage scale at VNom = %v, want 1", s)
	}
	// Leakage grows monotonically with frequency (voltage).
	prev := 0.0
	for g := 0.1; g <= 3.1; g += 0.1 {
		s := tech.LeakageScale(units.GHz(g))
		if s < prev {
			t.Fatalf("leakage scale decreased at %.1f GHz", g)
		}
		prev = s
	}
	// Bulk leakage rises faster with voltage than FD-SOI: compare the
	// growth from nominal to +0.2V in both technologies.
	fdsoiGrowth := leakAtVoltageDelta(FDSOI28(), 0.2)
	bulkGrowth := leakAtVoltageDelta(Bulk32(), 0.2)
	if bulkGrowth <= fdsoiGrowth {
		t.Errorf("bulk leakage growth %v should exceed FD-SOI growth %v", bulkGrowth, fdsoiGrowth)
	}
}

// leakAtVoltageDelta evaluates the technology's leakage formula at
// VNom+dv directly (bypassing the V/f table) to compare slopes.
func leakAtVoltageDelta(tech *Tech, dv float64) float64 {
	v := float64(tech.VNom) + dv
	vn := float64(tech.VNom)
	return (v / vn) * math.Exp((v-vn)/float64(tech.LeakageExpV0))
}

func TestString(t *testing.T) {
	s := FDSOI28().String()
	if s == "" {
		t.Error("String() returned empty")
	}
}

// Bulk28Mobile returns a 28nm bulk technology model representative of
// the Cavium ThunderX's process, used only for architecture-level
// comparisons (the DC study uses FD-SOI and Bulk32).
func Bulk28Mobile() *Tech {
	return &Tech{
		Name: "28nm bulk LP",
		vf: mathx.MustPiecewiseLinear(
			[]float64{0.60, 1.00, 1.50, 2.00, 2.50},
			[]float64{0.80, 0.85, 0.95, 1.05, 1.20},
		),
		VNom:              0.95,
		VThreshold:        0.40,
		NearThresholdBand: 0.15,
		LeakageExpV0:      0.12,
		FMin:              units.GHz(0.6),
		FMax:              units.GHz(2.5),
	}
}
