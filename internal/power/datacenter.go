package power

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/units"
)

// DataCenter is a homogeneous pool of servers sharing one ServerModel,
// as in the paper's evaluation (600 NTC servers for the policy study,
// 80 servers for the Fig. 1 what-if sweeps).
type DataCenter struct {
	Servers int
	Model   *ServerModel
}

// ErrInfeasible reports a demand that cannot be served with the
// available servers at the requested frequency.
var ErrInfeasible = errors.New("power: demand infeasible at this frequency with available servers")

// CapacityCoreGHz returns the data center's total CPU resources in
// core·GHz (the denominator of the paper's "data center utilization
// rate": number of servers × maximum CPU resources of one server).
func (dc *DataCenter) CapacityCoreGHz() float64 {
	return float64(dc.Servers) * float64(dc.Model.Cores) * dc.Model.FMax.GHz()
}

// ServersForDemand returns how many servers running at frequency f
// are needed to serve a demand expressed as a fraction of the data
// center's maximum CPU capacity ("CPU utilization rate" in the paper).
func (dc *DataCenter) ServersForDemand(utilRate float64, f units.Frequency) int {
	demand := utilRate * dc.CapacityCoreGHz()
	perServer := float64(dc.Model.Cores) * f.GHz()
	if perServer <= 0 {
		return math.MaxInt32
	}
	return int(math.Ceil(demand/perServer - 1e-9))
}

// WorstCasePower returns the worst-case data-center power for serving
// a CPU-bound demand of utilRate at uniform server frequency f: the
// Fig. 1 scenario ("no dynamic memory power"). Active servers run all
// cores busy; inactive servers are powered off. When capped is true
// the result is ErrInfeasible if more than dc.Servers would be needed
// — which is why, above ≈F_opt/F_max utilisation, the lowest feasible
// frequency becomes the optimum in Fig. 1a.
func (dc *DataCenter) WorstCasePower(utilRate float64, f units.Frequency, capped bool) (units.Power, int, error) {
	if utilRate < 0 || utilRate > 1 {
		return 0, 0, fmt.Errorf("power: utilisation rate %.2f outside [0, 1]", utilRate)
	}
	n := dc.ServersForDemand(utilRate, f)
	if capped && n > dc.Servers {
		return 0, n, fmt.Errorf("%w: need %d of %d servers at %v", ErrInfeasible, n, dc.Servers, f)
	}
	p := units.Power(float64(n) * float64(dc.Model.CPUBoundPower(f)))
	return p, n, nil
}

// OptimalWorstCaseFrequency returns the frequency minimising
// worst-case DC power for the given utilisation rate, honouring the
// server cap. This is the quantity the paper reads off Fig. 1a: F_opt
// ≈ 1.9 GHz for low rates, rising to the minimum feasible frequency
// beyond ≈50–60% utilisation.
func (dc *DataCenter) OptimalWorstCaseFrequency(utilRate float64) (units.Frequency, units.Power, error) {
	var (
		bestF units.Frequency
		bestP units.Power
		found bool
	)
	for _, f := range dc.Model.DVFSGrid() {
		p, _, err := dc.WorstCasePower(utilRate, f, true)
		if err != nil {
			continue
		}
		if !found || p < bestP {
			bestF, bestP, found = f, p, true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("%w: utilisation %.2f unservable at any frequency", ErrInfeasible, utilRate)
	}
	return bestF, bestP, nil
}
