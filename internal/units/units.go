// Package units defines the physical quantities used throughout the
// NTC data-center models: frequency, voltage, power, energy, memory
// sizes and utilisation percentages.
//
// All quantities are float64 wrappers with explicit unit-carrying
// constructors and accessors, so model code reads in the units the
// paper uses (GHz, Watts, MJ, GB, percent) while arithmetic stays in
// SI base units.
package units

import "fmt"

// Frequency is a clock frequency in hertz.
type Frequency float64

// Frequency construction helpers.
const (
	Hertz     Frequency = 1
	Kilohertz           = 1e3 * Hertz
	Megahertz           = 1e6 * Hertz
	Gigahertz           = 1e9 * Hertz
)

// MHz returns the frequency in megahertz.
func (f Frequency) MHz() float64 { return float64(f / Megahertz) }

// GHz returns the frequency in gigahertz.
func (f Frequency) GHz() float64 { return float64(f / Gigahertz) }

// GHz builds a Frequency from a value in gigahertz.
func GHz(v float64) Frequency { return Frequency(v * 1e9) }

// MHz builds a Frequency from a value in megahertz.
func MHz(v float64) Frequency { return Frequency(v * 1e6) }

func (f Frequency) String() string {
	switch {
	case f >= Gigahertz:
		return fmt.Sprintf("%.3gGHz", f.GHz())
	case f >= Megahertz:
		return fmt.Sprintf("%.4gMHz", f.MHz())
	default:
		return fmt.Sprintf("%.4gHz", float64(f))
	}
}

// Voltage is a supply voltage in volts.
type Voltage float64

// V returns the voltage in volts.
func (v Voltage) V() float64 { return float64(v) }

func (v Voltage) String() string { return fmt.Sprintf("%.3fV", float64(v)) }

// Power is a power draw in watts.
type Power float64

// Power construction helpers.
const (
	Watt      Power = 1
	Milliwatt       = Watt / 1e3
	Kilowatt        = 1e3 * Watt
	Megawatt        = 1e6 * Watt
)

// W returns the power in watts.
func (p Power) W() float64 { return float64(p) }

// KW returns the power in kilowatts.
func (p Power) KW() float64 { return float64(p / Kilowatt) }

// Watts builds a Power from a value in watts.
func Watts(v float64) Power { return Power(v) }

func (p Power) String() string {
	switch {
	case p >= Megawatt:
		return fmt.Sprintf("%.3gMW", float64(p/Megawatt))
	case p >= Kilowatt:
		return fmt.Sprintf("%.4gkW", p.KW())
	default:
		return fmt.Sprintf("%.4gW", float64(p))
	}
}

// Energy is an amount of energy in joules.
type Energy float64

// Energy construction helpers.
const (
	Joule     Energy = 1
	Kilojoule        = 1e3 * Joule
	Megajoule        = 1e6 * Joule
	Picojoule        = Joule / 1e12
)

// MJ returns the energy in megajoules.
func (e Energy) MJ() float64 { return float64(e / Megajoule) }

func (e Energy) String() string {
	switch {
	case e >= Megajoule:
		return fmt.Sprintf("%.4gMJ", e.MJ())
	case e >= Kilojoule:
		return fmt.Sprintf("%.4gkJ", float64(e/Kilojoule))
	default:
		return fmt.Sprintf("%.4gJ", float64(e))
	}
}

// EnergyOver returns the energy consumed by drawing p for d seconds.
func EnergyOver(p Power, seconds float64) Energy {
	return Energy(float64(p) * seconds)
}

// ByteSize is a memory capacity in bytes.
type ByteSize float64

// ByteSize construction helpers.
const (
	Byte     ByteSize = 1
	Kibibyte          = 1024 * Byte
	Mebibyte          = 1024 * Kibibyte
	Gibibyte          = 1024 * Mebibyte
)

// GB returns the size in gibibytes.
func (b ByteSize) GB() float64 { return float64(b / Gibibyte) }

// MB returns the size in mebibytes.
func (b ByteSize) MB() float64 { return float64(b / Mebibyte) }

// MiB builds a ByteSize from a value in mebibytes.
func MiB(v float64) ByteSize { return ByteSize(v) * Mebibyte }

// GiB builds a ByteSize from a value in gibibytes.
func GiB(v float64) ByteSize { return ByteSize(v) * Gibibyte }

func (b ByteSize) String() string {
	switch {
	case b >= Gibibyte:
		return fmt.Sprintf("%.4gGB", b.GB())
	case b >= Mebibyte:
		return fmt.Sprintf("%.4gMB", b.MB())
	case b >= Kibibyte:
		return fmt.Sprintf("%.4gKB", float64(b/Kibibyte))
	default:
		return fmt.Sprintf("%.4gB", float64(b))
	}
}

// Percent is a utilisation expressed in percent of some capacity
// (0 = idle, 100 = full), the paper's convention.
type Percent float64
