package alloc

import (
	"repro/internal/mathx"
)

// Verma is the binary-quantised consolidation baseline of Verma et
// al. (USENIX ATC 2009, the paper's [16]): each VM's CPU utilisation
// time series is quantised to a binary peak/off-peak sequence before
// correlation is computed. The paper criticises exactly this step —
// "this quantization alters the original behavior and is only
// applicable when VM envelops are stationary" — which makes the
// policy a useful ablation point between plain FFD and COAT.
type Verma struct {
	// PeakThresholdFrac marks a sample as "peak" when it exceeds this
	// fraction of the VM's own maximum (0.75 in the original).
	PeakThresholdFrac float64

	// CapFrac is the CPU cap fraction (1.0 = consolidate to F_max).
	CapFrac float64
}

// NewVerma returns the baseline with the original's parameters.
func NewVerma() *Verma {
	return &Verma{PeakThresholdFrac: 0.75, CapFrac: 1}
}

// Name implements Policy.
func (v *Verma) Name() string { return "Verma-binary" }

// binarise quantises a pattern to 0/1 against the VM's own peak.
func (v *Verma) binarise(pattern []float64) []float64 {
	peak := mathx.Max(pattern)
	out := make([]float64, len(pattern))
	if peak <= 0 {
		return out
	}
	thresh := v.PeakThresholdFrac * peak
	for i, x := range pattern {
		if x >= thresh {
			out[i] = 1
		}
	}
	return out
}

// Allocate implements Policy: first-fit-decreasing against the cap,
// preferring servers whose *binary* peak sequence is least correlated
// with the VM's — the quantisation loses the envelope information
// COAT and EPACT keep, which is the point of the baseline.
func (v *Verma) Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	if err := checkInput(vms, spec); err != nil {
		return nil, err
	}
	frac := v.CapFrac
	if frac <= 0 {
		frac = 1
	}
	capCPU := spec.CPUPoints() * frac
	capMem := spec.MemPoints()
	order, _ := byPeakCPU(vms)

	binary := make([][]float64, len(vms))
	for i := range vms {
		binary[i] = v.binarise(vms[i].CPU)
	}

	var servers []*ServerPlan
	var serverBinary [][]float64
	vmServer := make([]int, len(vms))
	for i := range vmServer {
		vmServer[i] = -1
	}

	for _, idx := range order {
		vm := &vms[idx]
		best, bestPhi := -1, 2.0 // minimise binary correlation
		for j, srv := range servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			phi, err := mathx.Pearson(serverBinary[j], binary[idx])
			if err != nil {
				return nil, err
			}
			if phi < bestPhi {
				best, bestPhi = j, phi
			}
		}
		if best < 0 {
			servers = append(servers, &ServerPlan{})
			serverBinary = append(serverBinary, make([]float64, len(vm.CPU)))
			best = len(servers) - 1
		}
		servers[best].add(idx, vm)
		for i := range binary[idx] {
			serverBinary[best][i] += binary[idx][i]
		}
		vmServer[idx] = best
	}

	return &Assignment{
		Policy:       v.Name(),
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: capCPU,
		MemCapPoints: capMem,
		PlannedFreq:  spec.FMax,
		FixedFreq:    true, // consolidation-era policy: race at F_max
	}, nil
}
