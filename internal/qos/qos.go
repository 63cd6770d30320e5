// Package qos implements the paper's quality-of-service model
// (Section III-C): banking batch VMs tolerate at most a 2x increase
// in execution time with respect to a baseline run on the 16-core
// Intel Xeon X5650 at 2.66 GHz with one LXC container per core.
package qos

import (
	"errors"
	"fmt"

	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// DegradationLimit is the maximum allowed execution-time increase
// w.r.t. the x86 baseline.
const DegradationLimit = 2.0

// ErrUnreachable reports that no frequency on the platform meets QoS.
var ErrUnreachable = errors.New("qos: QoS limit unreachable on this platform")

// baseline returns the x86 reference execution time for class c.
func baseline(c workload.Class) float64 {
	x86 := platform.IntelX5650()
	return x86.ExecTime(c, x86.FNominal)
}

// Limit returns the QoS execution-time limit for class c: 2x the x86
// baseline (the "2x Degrad. Intel" column of Table I).
func Limit(c workload.Class) float64 {
	return DegradationLimit * baseline(c)
}

// NormalizedTime returns execution time at (p, c, f) divided by the
// QoS limit — the y-axis of Fig. 2. Values above 1 violate QoS.
func NormalizedTime(p *platform.Platform, c workload.Class, f units.Frequency) float64 {
	return p.ExecTime(c, f) / Limit(c)
}

// Meets reports whether class c on platform p at frequency f meets
// the QoS constraint.
func Meets(p *platform.Platform, c workload.Class, f units.Frequency) bool {
	return NormalizedTime(p, c, f) <= 1+1e-9
}

// MinFrequency returns the lowest frequency (on a 100 MHz grid) at
// which class c still meets QoS on platform p — the Fig. 2 crossover
// (1.2 GHz for low-mem, 1.8 GHz for mid/high-mem on the NTC server).
func MinFrequency(p *platform.Platform, c workload.Class) (units.Frequency, error) {
	step := units.MHz(100)
	for f := p.FMin; f <= p.FMax+step/2; f += step {
		if f > p.FMax {
			f = p.FMax
		}
		if Meets(p, c, f) {
			return f, nil
		}
	}
	return 0, fmt.Errorf("%w: %v on %s", ErrUnreachable, c, p.Name)
}
