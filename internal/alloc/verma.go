package alloc

import (
	"slices"

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

// binarise quantises a pattern into out (of the same length) as 0/1
// against the VM's own peak.
func (v *Verma) binarise(out, pattern []float64) {
	peak := mathx.Max(pattern)
	if peak <= 0 {
		clear(out)
		return
	}
	thresh := v.PeakThresholdFrac * peak
	for i, x := range pattern {
		out[i] = 0
		if x >= thresh {
			out[i] = 1
		}
	}
}

// Allocate implements Policy.
func (v *Verma) Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	return Fresh(v, vms, spec)
}

// AllocateInto implements Filler: first-fit-decreasing against the
// cap, preferring servers whose *binary* peak sequence is least
// correlated with the VM's — the quantisation loses the envelope
// information COAT and EPACT keep, which is the point of the baseline.
func (v *Verma) AllocateInto(dst *Assignment, vms []VMDemand, spec ServerSpec) error {
	if err := checkInput(vms, spec); err != nil {
		return err
	}
	frac := v.CapFrac
	if frac <= 0 {
		frac = 1
	}
	capCPU := spec.CPUPoints() * frac
	capMem := spec.MemPoints()
	sc := basePool.Get().(*baseScratch)
	defer basePool.Put(sc)
	order, _ := sc.byPeakCPU(vms)

	n := len(vms[0].CPU)
	sc.binary = resize(sc.binary, len(vms)*n)
	binary := sc.binary
	for i := range vms {
		v.binarise(binary[i*n:(i+1)*n], vms[i].CPU)
	}

	dst.Reset(v.Name(), len(vms))
	sc.srvBinary = sc.srvBinary[:0]
	for _, idx := range order {
		vm := &vms[idx]
		bin := binary[idx*n : (idx+1)*n]
		best, bestPhi := -1, 2.0 // minimise binary correlation
		for j, srv := range dst.Servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			phi, err := mathx.Pearson(sc.srvBinary[j*n:(j+1)*n], bin)
			if err != nil {
				return err
			}
			if phi < bestPhi {
				best, bestPhi = j, phi
			}
		}
		if best < 0 {
			dst.AddServer(n)
			k := len(sc.srvBinary)
			sc.srvBinary = slices.Grow(sc.srvBinary, n)[:k+n]
			clear(sc.srvBinary[k:])
			best = len(dst.Servers) - 1
		}
		dst.Servers[best].add(idx, vm)
		row := sc.srvBinary[best*n : (best+1)*n]
		for i, b := range bin {
			row[i] += b
		}
		dst.VMServer[idx] = best
	}

	dst.CPUCapPoints, dst.MemCapPoints = capCPU, capMem
	dst.PlannedFreq = spec.FMax
	dst.FixedFreq = true // consolidation-era policy: race at F_max
	return nil
}
