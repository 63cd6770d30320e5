// Package alloc implements the paper's VM-allocation layer: the
// proposed EPACT method (Section V-B — Eq. 1 server sizing, Algorithm
// 1 for the CPU-dominated case, Algorithm 2 with the Eq. 2 merit
// function for the memory-dominated case) and the baselines it is
// evaluated against (COAT, the correlation-aware consolidation of Kim
// et al. [17]; COAT-OPT, the same with the optimal fixed cap; plain
// first-fit-decreasing; and load balancing).
//
// # Unit conventions
//
// CPU demand is expressed in "core-points at F_max": one VM's CPU
// utilisation sample of 70 means 70% of one core running at the
// maximum frequency. A server with C cores therefore offers C×100
// core-points at F_max and C×100×f/F_max at frequency f. Memory is in
// "container-points": each VM owns a 1 GB container, a sample of 25
// means 250 MB, and a 16 GB server offers 16×100 container-points.
//
// All allocators consume per-slot *predicted* patterns (n samples per
// slot, 12 in the paper's 1-hour slots at 5-minute sampling) and fill
// an Assignment the caller owns (see Filler); the data-center
// simulator replays the actual traces against it.
package alloc

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/mathx"
	"repro/internal/units"
)

// VMDemand is one VM's predicted utilisation pattern for a slot.
type VMDemand struct {
	// ID identifies the VM in the caller's world (trace index).
	ID int

	// CPU[i] is core-points at F_max for sample i of the slot.
	CPU []float64

	// Mem[i] is container-points for sample i of the slot.
	Mem []float64
}

// PeakCPU returns the maximum CPU sample.
func (v *VMDemand) PeakCPU() float64 { return mathx.Max(v.CPU) }

// ServerSpec describes the capacity of one (homogeneous) server for
// the allocators.
type ServerSpec struct {
	// Cores per server (16 for the NTC server).
	Cores int

	// MemContainers is how many 1 GB VM containers fit in server
	// memory (16 for 16 GB).
	MemContainers float64

	// FMax is the maximum core frequency.
	FMax units.Frequency

	// FMin is the lowest DVFS level.
	FMin units.Frequency
}

// CPUPoints returns the server's CPU capacity in core-points at FMax.
func (s ServerSpec) CPUPoints() float64 { return float64(s.Cores) * 100 }

// MemPoints returns the server's memory capacity in container-points.
func (s ServerSpec) MemPoints() float64 { return s.MemContainers * 100 }

// Validate checks the spec. Every comparison with NaN is false, so the
// non-finite fields are rejected by name before the range checks.
func (s ServerSpec) Validate() error {
	switch {
	case !finite(s.MemContainers):
		return fmt.Errorf("alloc: server MemContainers %v is not finite", s.MemContainers)
	case !finite(float64(s.FMax)):
		return fmt.Errorf("alloc: server FMax %v is not finite", float64(s.FMax))
	case !finite(float64(s.FMin)):
		return fmt.Errorf("alloc: server FMin %v is not finite", float64(s.FMin))
	}
	if s.Cores <= 0 || s.MemContainers <= 0 {
		return errors.New("alloc: server needs positive cores and memory")
	}
	if s.FMax <= 0 || s.FMin < 0 || s.FMin > s.FMax {
		return errors.New("alloc: bad frequency range")
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// ServerPlan is the predicted load assembled on one server.
type ServerPlan struct {
	// VMs holds indices into the Allocate input slice.
	VMs []int

	// CPU and Mem are the aggregated predicted patterns (same units
	// as VMDemand).
	CPU []float64
	Mem []float64
}

// PeakCPU returns the aggregated predicted CPU peak.
func (p *ServerPlan) PeakCPU() float64 {
	if len(p.CPU) == 0 {
		return 0
	}
	return mathx.Max(p.CPU)
}

// add accumulates a VM's pattern into the plan.
func (p *ServerPlan) add(idx int, vm *VMDemand) {
	if p.CPU == nil {
		p.CPU = make([]float64, len(vm.CPU))
		p.Mem = make([]float64, len(vm.Mem))
	}
	for i := range vm.CPU {
		p.CPU[i] += vm.CPU[i]
	}
	for i := range vm.Mem {
		p.Mem[i] += vm.Mem[i]
	}
	p.VMs = append(p.VMs, idx)
}

// fits reports whether adding vm keeps the plan under the caps.
func (p *ServerPlan) fits(vm *VMDemand, capCPU, capMem float64) bool {
	for i := range vm.CPU {
		agg := vm.CPU[i]
		if p.CPU != nil {
			agg += p.CPU[i]
		}
		if agg > capCPU+1e-9 {
			return false
		}
	}
	for i := range vm.Mem {
		agg := vm.Mem[i]
		if p.Mem != nil {
			agg += p.Mem[i]
		}
		if agg > capMem+1e-9 {
			return false
		}
	}
	return true
}

// Assignment is an allocator's output for one slot.
type Assignment struct {
	// Policy is the allocator's name.
	Policy string

	// Servers lists the active servers with their planned loads.
	Servers []*ServerPlan

	// VMServer maps each input VM index to its server index.
	VMServer []int

	// CPUCapPoints and MemCapPoints are the per-server caps the
	// allocator packed against.
	CPUCapPoints, MemCapPoints float64

	// PlannedFreq is the frequency the cap corresponds to (the F_opt^T
	// of EPACT; F_max for COAT; the fixed optimum for COAT-OPT).
	PlannedFreq units.Frequency

	// FixedFreq marks policies whose servers run pinned at
	// PlannedFreq ("fixed cap" policies like COAT-OPT): the online
	// governor neither throttles below it at low demand nor boosts
	// above it during peaks — the paper's "less control on violations
	// during peak loads using a fixed cap".
	FixedFreq bool

	// EPACTCase records which branch EPACT took (1 = CPU-dominated,
	// 2 = memory-dominated); 0 for other policies.
	EPACTCase int
}

// Reset empties a for a fill of nVMs VMs: no servers, every VM
// unplaced (-1), every scalar field zero but Policy. The server plans
// and slices stay allocated for AddServer and the VMServer map to
// reuse, so a caller that refills one Assignment slot after slot
// allocates only while its buffers grow.
func (a *Assignment) Reset(policy string, nVMs int) {
	*a = Assignment{Policy: policy, Servers: a.Servers[:0], VMServer: resize(a.VMServer, nVMs)}
	for i := range a.VMServer {
		a.VMServer[i] = -1
	}
}

// AddServer appends an empty server whose CPU and Mem patterns hold n
// zero samples and returns it. It reuses the plan, and the plan's
// buffers, that an earlier fill left at that position.
func (a *Assignment) AddServer(n int) *ServerPlan {
	k := len(a.Servers)
	if k < cap(a.Servers) {
		a.Servers = a.Servers[:k+1]
	} else {
		a.Servers = append(a.Servers, nil)
	}
	p := a.Servers[k]
	if p == nil {
		p = new(ServerPlan)
		a.Servers[k] = p
	}
	p.VMs = p.VMs[:0]
	p.CPU = zeroed(p.CPU, n)
	p.Mem = zeroed(p.Mem, n)
	return p
}

// zeroed returns s resized to n zero samples, reusing its backing.
func zeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// CopyFrom makes a a deep copy of src in a's own buffers: the copy
// shares no slice with src, so src may be refilled afterwards.
func (a *Assignment) CopyFrom(src *Assignment) {
	a.Reset(src.Policy, len(src.VMServer))
	copy(a.VMServer, src.VMServer)
	a.CPUCapPoints, a.MemCapPoints = src.CPUCapPoints, src.MemCapPoints
	a.PlannedFreq, a.FixedFreq, a.EPACTCase = src.PlannedFreq, src.FixedFreq, src.EPACTCase
	for _, sp := range src.Servers {
		p := a.AddServer(0)
		p.VMs = append(p.VMs, sp.VMs...)
		p.CPU = append(p.CPU, sp.CPU...)
		p.Mem = append(p.Mem, sp.Mem...)
	}
}

// ActiveServers returns the number of servers holding at least one VM.
func (a *Assignment) ActiveServers() int {
	n := 0
	for _, s := range a.Servers {
		if len(s.VMs) > 0 {
			n++
		}
	}
	return n
}

// Policy allocates one slot's predicted VM demands to servers.
//
// Every policy of this package is also a Filler, and Allocate is
// Fresh over its AllocateInto. The slot loops call Into, which fills
// their own Assignment in place; Allocate stays for callers that wrap
// a policy and want a result they keep.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string

	// Allocate maps vms to servers in a fresh Assignment the caller
	// owns. Implementations must not retain or modify the input.
	Allocate(vms []VMDemand, spec ServerSpec) (*Assignment, error)
}

// Filler is a Policy that fills a caller-owned Assignment.
//
// AllocateInto maps vms to servers in dst. It resets dst and sets
// every field of it on every call, reusing dst's server plans and
// slices, so a caller that refills one Assignment slot after slot
// allocates nothing once those have grown; per-call scratch lives in
// pools. The policy does not retain dst, and, like Allocate, must not
// retain or modify the input. After an error dst's contents are
// unspecified.
type Filler interface {
	Policy
	AllocateInto(dst *Assignment, vms []VMDemand, spec ServerSpec) error
}

// Into allocates vms into dst: in place when p is a Filler, otherwise
// through p.Allocate and a copy into dst's buffers.
func Into(p Policy, dst *Assignment, vms []VMDemand, spec ServerSpec) error {
	if f, ok := p.(Filler); ok {
		return f.AllocateInto(dst, vms, spec)
	}
	a, err := p.Allocate(vms, spec)
	if err != nil {
		return err
	}
	dst.CopyFrom(a)
	return nil
}

// Fresh is Allocate for a Filler: it fills a new Assignment.
func Fresh(f Filler, vms []VMDemand, spec ServerSpec) (*Assignment, error) {
	a := new(Assignment)
	if err := f.AllocateInto(a, vms, spec); err != nil {
		return nil, err
	}
	return a, nil
}

// errNoVMs is returned for an empty input.
var errNoVMs = errors.New("alloc: no VMs to allocate")

// checkInput validates common preconditions: uniform sample counts and
// finite, non-negative demands. NaN fails every comparison, so a NaN
// sample would pass a plain negativity test and then fit anywhere.
func checkInput(vms []VMDemand, spec ServerSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if len(vms) == 0 {
		return errNoVMs
	}
	n := len(vms[0].CPU)
	if n == 0 {
		return errors.New("alloc: empty patterns")
	}
	for i := range vms {
		if len(vms[i].CPU) != n || len(vms[i].Mem) != n {
			return fmt.Errorf("alloc: VM %d has ragged patterns", i)
		}
		for s := 0; s < n; s++ {
			if c := vms[i].CPU[s]; !(c >= 0) || math.IsInf(c, 1) {
				return fmt.Errorf("alloc: VM %d CPU demand %v at sample %d is not finite and non-negative", i, c, s)
			}
			if m := vms[i].Mem[s]; !(m >= 0) || math.IsInf(m, 1) {
				return fmt.Errorf("alloc: VM %d Mem demand %v at sample %d is not finite and non-negative", i, m, s)
			}
		}
	}
	return nil
}
