package trace

import (
	"errors"
)

// VM churn: Google-cluster populations are not static — tasks arrive
// and finish throughout the week. A VM that is absent reports zero
// utilisation; the allocators then place a zero-demand VM wherever it
// is cheapest, which is how the real systems treat parked containers.
//
// Churn is applied as a post-pass so the same base trace can be
// studied with and without it (an extension experiment).

// ChurnConfig parameterises the arrival/departure process.
type ChurnConfig struct {
	// ArrivalFraction is the share of VMs that arrive mid-trace
	// instead of existing from sample 0.
	ArrivalFraction float64

	// DepartureFraction is the share of VMs that finish before the
	// trace ends.
	DepartureFraction float64

	// MinLifetimeDays bounds how short a churned VM's life can be.
	MinLifetimeDays float64

	// Seed drives the deterministic choice of which VMs churn.
	Seed int64
}

// DefaultChurnConfig mirrors the moderate churn of the Google data:
// roughly a quarter of VMs arrive late and a quarter leave early.
func DefaultChurnConfig(seed int64) ChurnConfig {
	return ChurnConfig{
		ArrivalFraction:   0.25,
		DepartureFraction: 0.25,
		MinLifetimeDays:   1,
		Seed:              seed,
	}
}

// ApplyChurn zeroes each selected VM's utilisation before its arrival
// sample and/or after its departure sample, in place. It returns the
// number of VMs affected.
func (t *Trace) ApplyChurn(cfg ChurnConfig) (int, error) {
	if cfg.ArrivalFraction < 0 || cfg.ArrivalFraction > 1 ||
		cfg.DepartureFraction < 0 || cfg.DepartureFraction > 1 {
		return 0, errors.New("trace: churn fractions must be in [0,1]")
	}
	n := t.Samples()
	minLife := int(cfg.MinLifetimeDays * SamplesPerDay)
	if minLife >= n {
		return 0, errors.New("trace: minimum lifetime exceeds trace length")
	}
	r := newRNG(cfg.Seed)
	affected := 0
	for _, vm := range t.VMs {
		arrive := 0
		depart := n
		if r.float() < cfg.ArrivalFraction {
			arrive = int(r.float() * float64(n-minLife))
		}
		if r.float() < cfg.DepartureFraction {
			earliest := arrive + minLife
			depart = earliest + int(r.float()*float64(n-earliest))
			if depart > n {
				depart = n
			}
		}
		if arrive == 0 && depart == n {
			continue
		}
		affected++
		for i := 0; i < arrive; i++ {
			vm.CPU[i] = 0
			vm.Mem[i] = 0
		}
		for i := depart; i < n; i++ {
			vm.CPU[i] = 0
			vm.Mem[i] = 0
		}
	}
	return affected, nil
}
