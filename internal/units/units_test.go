package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFrequencyConversions(t *testing.T) {
	f := GHz(1.9)
	if got := f.MHz(); !almost(got, 1900, 1e-9) {
		t.Errorf("GHz(1.9).MHz() = %v, want 1900", got)
	}
	if got := f.GHz(); !almost(got, 1.9, 1e-12) {
		t.Errorf("GHz(1.9).GHz() = %v, want 1.9", got)
	}
	if got := MHz(2400).GHz(); !almost(got, 2.4, 1e-12) {
		t.Errorf("MHz(2400).GHz() = %v, want 2.4", got)
	}
}

func TestFrequencyString(t *testing.T) {
	cases := []struct {
		f    Frequency
		want string
	}{
		{GHz(3.1), "3.1GHz"},
		{MHz(300), "300MHz"},
		{Frequency(50), "50Hz"},
	}
	for _, c := range cases {
		if got := c.f.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.f), got, c.want)
		}
	}
}

func TestPowerConversions(t *testing.T) {
	p := Watts(11840)
	if got := p.KW(); !almost(got, 11.84, 1e-9) {
		t.Errorf("Watts(11840).KW() = %v, want 11.84", got)
	}
	if got := (1 * Megawatt).W(); !almost(got, 1e6, 1e-3) {
		t.Errorf("Megawatt.W() = %v, want 1e6", got)
	}
}

func TestEnergyOver(t *testing.T) {
	// 100 W over one hour is 0.36 MJ.
	e := EnergyOver(Watts(100), 3600)
	if got := e.MJ(); !almost(got, 0.36, 1e-9) {
		t.Errorf("EnergyOver(100W, 1h).MJ() = %v, want 0.36", got)
	}
}

func TestByteSize(t *testing.T) {
	if got := GiB(16).GB(); !almost(got, 16, 1e-12) {
		t.Errorf("GiB(16).GB() = %v, want 16", got)
	}
	if got := MiB(435).MB(); !almost(got, 435, 1e-9) {
		t.Errorf("MiB(435).MB() = %v, want 435", got)
	}
	if got := MiB(1024).GB(); !almost(got, 1, 1e-12) {
		t.Errorf("MiB(1024).GB() = %v, want 1", got)
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(43).Fraction(); !almost(got, 0.43, 1e-12) {
		t.Errorf("Percent(43).Fraction() = %v, want 0.43", got)
	}
	if got := PercentOf(0.07); !almost(float64(got), 7, 1e-12) {
		t.Errorf("PercentOf(0.07) = %v, want 7", got)
	}
	if got := Percent(120).Clamp(0, 100); got != 100 {
		t.Errorf("Percent(120).Clamp(0,100) = %v, want 100", got)
	}
	if got := Percent(-3).Clamp(0, 100); got != 0 {
		t.Errorf("Percent(-3).Clamp(0,100) = %v, want 0", got)
	}
}

func TestPercentRoundTripProperty(t *testing.T) {
	prop := func(raw float64) bool {
		frac := math.Mod(math.Abs(raw), 1) // fraction in [0,1)
		p := PercentOf(frac)
		return almost(p.Fraction(), frac, 1e-12)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFrequencyRoundTripProperty(t *testing.T) {
	prop := func(raw float64) bool {
		ghz := math.Mod(math.Abs(raw), 10) // stay in a realistic clock range
		f := GHz(ghz)
		return almost(f.GHz(), ghz, 1e-9) && almost(f.MHz(), ghz*1000, 1e-6)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{Watts(15).String(), "15W"},
		{Watts(2500).String(), "2.5kW"},
		{Power(3 * Megawatt).String(), "3MW"},
		{Energy(25 * Megajoule).String(), "25MJ"},
		{Energy(1500).String(), "1.5kJ"},
		{Energy(0.5).String(), "0.5J"},
		{GiB(16).String(), "16GB"},
		{MiB(255).String(), "255MB"},
		{ByteSize(2048).String(), "2KB"},
		{ByteSize(12).String(), "12B"},
		{Voltage(0.6).String(), "0.600V"},
		{Percent(43.219).String(), "43.22%"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

// Fraction returns the utilisation as a fraction in [0,1].
func (p Percent) Fraction() float64 { return float64(p) / 100 }

// PercentOf builds a Percent from a fraction in [0,1].
func PercentOf(fraction float64) Percent { return Percent(fraction * 100) }

// Clamp limits the percentage to [lo, hi].
func (p Percent) Clamp(lo, hi Percent) Percent {
	if p < lo {
		return lo
	}
	if p > hi {
		return hi
	}
	return p
}

func (p Percent) String() string { return fmt.Sprintf("%.2f%%", float64(p)) }
