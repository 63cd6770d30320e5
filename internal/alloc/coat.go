package alloc

import (
	"repro/internal/mathx"
	"repro/internal/units"
)

// COAT is the COnsolidation-Aware allocaTion baseline (Kim et al.,
// DATE 2013 [17]): correlation-aware consolidation that packs VMs into
// the fewest servers whose aggregated predicted peak stays under a
// fixed cap, separating CPU-load-correlated VMs where possible. With
// CapFrac = 1 it is the paper's COAT (maximum cap, i.e. consolidation
// at F_max); with the cap set from the optimal server frequency it is
// COAT-OPT.
type COAT struct {
	// CapFrac is the CPU cap as a fraction of the server's capacity
	// at F_max (1.0 for COAT).
	CapFrac float64

	// PlannedFreq is the frequency the cap corresponds to, recorded in
	// the assignment (F_max for COAT, the fixed optimum for COAT-OPT).
	PlannedFreq units.Frequency

	// CorrThreshold is the maximum Pearson correlation between a VM
	// and a server's aggregated load for the VM to be considered
	// well-placed there; servers above it are only used when no
	// better-suited server fits. 0 means "no preference".
	CorrThreshold float64

	// FixedFreq pins servers at PlannedFreq (COAT-OPT's fixed cap):
	// no throttling below it, no boosting above it.
	FixedFreq bool

	// Label overrides the reported name (to distinguish COAT-OPT).
	Label string
}

// NewCOAT returns the paper's COAT baseline for the given server spec:
// maximum cap with Kim et al.'s correlation separation threshold.
// Consolidation approaches assume a linear power-frequency relation
// (Section II-B), under which racing at the highest frequency is
// optimal — so COAT's servers run pinned at F_max (Section V-A: "a
// traditional consolidation approach minimizes the amount of active
// servers and runs them at the highest frequency possible").
func NewCOAT(spec ServerSpec) *COAT {
	return &COAT{CapFrac: 1, PlannedFreq: spec.FMax, CorrThreshold: 0.5, FixedFreq: true, Label: "COAT"}
}

// NewCOATOPT returns COAT-OPT: COAT with an optimal fixed cap, i.e.
// the cap frequency that minimises worst-case data-center power
// (≈1.9 GHz for the NTC server, supplied by the caller's power model).
func NewCOATOPT(spec ServerSpec, fOpt units.Frequency) *COAT {
	return &COAT{
		CapFrac:       fOpt.GHz() / spec.FMax.GHz(),
		PlannedFreq:   fOpt,
		CorrThreshold: 0.5,
		FixedFreq:     true,
		Label:         "COAT-OPT",
	}
}

// NewFFD returns plain first-fit-decreasing consolidation without
// correlation awareness: the classical baseline ([7], [12]) that only
// checks that the total size of the VMs' load fits the server
// capacity. It is COAT without the correlation filter: with
// CorrThreshold 0 every VM takes the first server it fits, at the
// full cap, planned at F_max and not pinned there.
func NewFFD() *COAT {
	return &COAT{CapFrac: 1, Label: "FFD"}
}

// Name implements Policy.
func (c *COAT) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "COAT"
}

// Allocate implements Policy.
func (c *COAT) Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	return Fresh(c, vms, spec)
}

// AllocateInto implements Filler: first-fit-decreasing over peak CPU
// with a correlation filter — among open servers that fit, prefer the
// first whose aggregated load correlates with the VM below the
// threshold (separating correlated VMs); if none qualifies, fall back
// to the first feasible server; if nothing fits, open a new server.
func (c *COAT) AllocateInto(dst *Assignment, vms []VMDemand, spec ServerSpec) error {
	if err := checkInput(vms, spec); err != nil {
		return err
	}
	capCPU := spec.CPUPoints() * c.CapFrac
	capMem := spec.MemPoints()
	sc := basePool.Get().(*baseScratch)
	defer basePool.Put(sc)
	order, _ := sc.byPeakCPU(vms)

	dst.Reset(c.Name(), len(vms))
	n := len(vms[0].CPU)
	for _, idx := range order {
		vm := &vms[idx]
		firstFit := -1
		uncorrelatedFit := -1
		for j, srv := range dst.Servers {
			if !srv.fits(vm, capCPU, capMem) {
				continue
			}
			if firstFit < 0 {
				firstFit = j
			}
			if c.CorrThreshold > 0 && len(srv.VMs) > 0 {
				phi, err := mathx.Pearson(srv.CPU, vm.CPU)
				if err != nil {
					return err
				}
				if phi <= c.CorrThreshold {
					uncorrelatedFit = j
					break
				}
			} else {
				uncorrelatedFit = j
				break
			}
		}
		target := uncorrelatedFit
		if target < 0 {
			target = firstFit
		}
		if target < 0 {
			dst.AddServer(n)
			target = len(dst.Servers) - 1
		}
		dst.Servers[target].add(idx, vm)
		dst.VMServer[idx] = target
	}

	planned := c.PlannedFreq
	if planned == 0 {
		planned = spec.FMax
	}
	dst.CPUCapPoints, dst.MemCapPoints = capCPU, capMem
	dst.PlannedFreq, dst.FixedFreq = planned, c.FixedFreq
	return nil
}
