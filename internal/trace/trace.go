// Package trace provides the cloud-workload substrate of the study:
// per-VM CPU and memory utilisation time series shaped like the one
// week of Google Cluster traces the paper uses (Section III-B) — 600+
// VMs sampled every 5 minutes with strong daily periodicity,
// correlated VM groups, and occasional abrupt load changes.
//
// The real Google trace cannot ship with this repository, so Generate
// synthesises traces reproducing the statistical properties the
// allocation policies exploit or suffer from:
//
//   - daily periodicity (what makes ARIMA forecasting work),
//   - CPU-load correlation across groups of VMs (what the Pearson
//     terms in COAT and EPACT react to),
//   - per-VM memory levels clustered around the paper's three
//     profiled classes (7% / 25% / 43% of the 1 GB VM container),
//   - abrupt bursts that cause the mispredictions behind Fig. 4's
//     SLA violations.
//
// Real traces can be ingested too: Source is the pluggable
// trace-ingestion backend interface ("synthetic", "csv:path",
// "cluster:path" specs via ParseSourceSpec), covering the generator,
// files in the native CSV format (WriteCSV/ReadCSV), and real
// cluster dumps normalised by the cluster adapter (ReadClusterCSV).
// Formats and normalisation rules are specified in docs/TRACES.md.
//
// A Trace is the unit the rest of the system composes over: the
// sweep engine ingests one per backend spec and shares it read-only
// across scenarios, and the topology layer partitions its VMs across
// the datacenters of a fleet — always after any churn mutation, so
// concurrent consumers never alias mutable state.
//
// Conventions: CPU utilisation is percent of one core at the
// platform's maximum frequency; memory utilisation is percent of the
// VM's 1 GB container; one sample every 5 minutes (DefaultInterval),
// 288 samples per day.
package trace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/workload"
)

// DefaultInterval is the Google-trace reporting period.
const DefaultInterval = 5 * time.Minute

// SamplesPerDay at the 5-minute interval.
const SamplesPerDay = 288

// SamplesPerSlot is one allocation slot (1 hour) of 5-minute samples.
const SamplesPerSlot = 12

// VM is one virtual machine's utilisation history.
type VM struct {
	ID    int
	Class workload.Class

	// CPU[i] is percent of one core at F_max during sample i.
	CPU []float64

	// Mem[i] is percent of the VM's 1 GB container during sample i.
	Mem []float64
}

// MeanMem returns the VM's average memory utilisation percent.
func (v *VM) MeanMem() float64 {
	if len(v.Mem) == 0 {
		return 0
	}
	s := 0.0
	for _, m := range v.Mem {
		s += m
	}
	return s / float64(len(v.Mem))
}

// Trace is a set of VM utilisation histories on a common clock.
type Trace struct {
	Interval time.Duration
	VMs      []*VM

	// root is the trace this one is a view of (see Subset); nil for a
	// trace that owns its VMs.
	root *Trace
}

// Subset returns a view of the VMs at idxs, in that order. The view
// shares the parent's *VM values read-only and records the parent's
// root, so a view of a view has the same root: whatever was checked
// on the root's samples holds for every view derived from it.
func (t *Trace) Subset(idxs []int) *Trace {
	out := &Trace{Interval: t.Interval, VMs: make([]*VM, len(idxs)), root: t.Root()}
	for i, v := range idxs {
		out.VMs[i] = t.VMs[v]
	}
	return out
}

// Root returns the trace t is a view of, or t itself if it is not a
// view.
func (t *Trace) Root() *Trace {
	if t.root != nil {
		return t.root
	}
	return t
}

// Samples returns the number of samples per VM.
func (t *Trace) Samples() int {
	if len(t.VMs) == 0 {
		return 0
	}
	return len(t.VMs[0].CPU)
}

// Slots returns the number of whole allocation slots in the trace.
func (t *Trace) Slots() int { return t.Samples() / SamplesPerSlot }

// SlotWindow returns the sample index range [lo, hi) of slot s.
func (t *Trace) SlotWindow(s int) (lo, hi int) {
	return s * SamplesPerSlot, (s + 1) * SamplesPerSlot
}

// Validate checks structural consistency: uniform lengths and
// utilisations within [0, 100] (NaN is outside).
func (t *Trace) Validate() error {
	if err := t.ValidateShape(t.Samples()); err != nil {
		return err
	}
	for _, vm := range t.VMs {
		for i := range vm.CPU {
			if !(vm.CPU[i] >= 0 && vm.CPU[i] <= 100 && vm.Mem[i] >= 0 && vm.Mem[i] <= 100) {
				return fmt.Errorf("trace: VM %d sample %d outside [0,100]", vm.ID, i)
			}
		}
	}
	return nil
}

// ValidateShape checks that t has VMs and that every VM's CPU and
// memory series hold n samples: the O(VMs) part of Validate, which is
// all a view needs once its root's samples are validated.
func (t *Trace) ValidateShape(n int) error {
	if len(t.VMs) == 0 {
		return errors.New("trace: no VMs")
	}
	for _, vm := range t.VMs {
		if len(vm.CPU) != n || len(vm.Mem) != n {
			return fmt.Errorf("trace: VM %d has ragged series (%d cpu, %d mem, want %d)",
				vm.ID, len(vm.CPU), len(vm.Mem), n)
		}
	}
	return nil
}

// AggregateCPU returns the sum over VMs of CPU utilisation at each
// sample (percent of one core each; divide by 100 for core-equivalents).
func (t *Trace) AggregateCPU() []float64 {
	out := make([]float64, t.Samples())
	for _, vm := range t.VMs {
		for i, c := range vm.CPU {
			out[i] += c
		}
	}
	return out
}

// AggregateMem returns the sum over VMs of memory utilisation at each
// sample (percent of one 1 GB container each).
func (t *Trace) AggregateMem() []float64 {
	out := make([]float64, t.Samples())
	for _, vm := range t.VMs {
		for i, m := range vm.Mem {
			out[i] += m
		}
	}
	return out
}

// Config parameterises the synthetic generator.
type Config struct {
	// VMs is the population size (the paper uses "over 600 VMs").
	VMs int

	// Days of trace at 288 samples/day (the paper uses one week).
	Days int

	// Groups is the number of correlation groups; VMs within a group
	// share a diurnal phase and a common load component, giving the
	// CPU-load correlation the policies exploit.
	Groups int

	// Seed makes generation deterministic.
	Seed int64

	// DiurnalAmplitude scales the day/night swing (percent points).
	DiurnalAmplitude float64

	// CommonStd is the standard deviation of the shared per-group
	// random walk (correlated component).
	CommonStd float64

	// NoiseStd is the per-VM white-noise standard deviation.
	NoiseStd float64

	// BurstProb is the per-VM per-sample probability of an abrupt
	// load burst (the unpredictable events behind SLA violations).
	BurstProb float64

	// BurstBoost is the burst magnitude in percent points.
	BurstBoost float64

	// BaseMin/BaseMax bound the per-VM baseline CPU level.
	BaseMin, BaseMax float64
}

// DefaultConfig mirrors the paper's setup: 600 VMs, one week.
func DefaultConfig(seed int64) Config {
	return Config{
		VMs:              600,
		Days:             7,
		Groups:           12,
		Seed:             seed,
		DiurnalAmplitude: 25,
		CommonStd:        2.0,
		NoiseStd:         3.0,
		BurstProb:        0.004,
		BurstBoost:       35,
		BaseMin:          15,
		BaseMax:          55,
	}
}

// rng is a small deterministic xorshift generator so traces are
// reproducible across platforms and Go versions.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	return &rng{state: uint64(seed)*2862933555777941757 + 3037000493 | 1}
}

func (r *rng) uint64() uint64 {
	r.state ^= r.state << 13
	r.state ^= r.state >> 7
	r.state ^= r.state << 17
	return r.state
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 {
	return float64(r.uint64()>>11) / float64(1<<53)
}

// norm returns an approximately standard-normal variate
// (Irwin–Hall sum of 12 uniforms).
func (r *rng) norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.float()
	}
	return s - 6
}

// Generate synthesises a trace per cfg. The same cfg always produces
// the same trace.
func Generate(cfg Config) (*Trace, error) {
	if cfg.VMs <= 0 || cfg.Days <= 0 {
		return nil, errors.New("trace: VMs and Days must be positive")
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	r := newRNG(cfg.Seed)
	n := cfg.Days * SamplesPerDay

	// Per-group structure: the diurnal shape (day/night sinusoid plus
	// a sharper mid-peak harmonic, phase-shifted per group) and a
	// shared smoothed random walk that correlates members' loads.
	type group struct {
		diurnal []float64
		common  []float64
	}
	groups := make([]group, cfg.Groups)
	for g := range groups {
		phase := r.float() * float64(SamplesPerDay)
		groups[g].diurnal = make([]float64, n)
		for i := range groups[g].diurnal {
			tDay := (float64(i) + phase) / SamplesPerDay * 2 * math.Pi
			groups[g].diurnal[i] = 0.75*math.Sin(tDay) + 0.25*math.Sin(2*tDay)
		}
		walk := make([]float64, n)
		level := 0.0
		for i := 0; i < n; i++ {
			level += r.norm() * cfg.CommonStd
			// Mean-revert so the walk stays bounded.
			level *= 0.98
			walk[i] = level
		}
		groups[g].common = walk
	}

	// Memory class mixture roughly matching the paper's profiling
	// split (low:mid:high ≈ 40%:35%:25%).
	memMean := func(c workload.Class) float64 {
		switch c {
		case workload.LowMem:
			return 7
		case workload.MidMem:
			return 25
		default:
			return 43
		}
	}

	tr := &Trace{Interval: DefaultInterval}
	for id := 0; id < cfg.VMs; id++ {
		g := groups[id%cfg.Groups]

		var class workload.Class
		switch p := r.float(); {
		case p < 0.40:
			class = workload.LowMem
		case p < 0.75:
			class = workload.MidMem
		default:
			class = workload.HighMem
		}

		base := cfg.BaseMin + r.float()*(cfg.BaseMax-cfg.BaseMin)
		ampl := cfg.DiurnalAmplitude * (0.7 + 0.6*r.float())
		mem0 := memMean(class) * (0.85 + 0.3*r.float())

		cpu := make([]float64, n)
		mem := make([]float64, n)
		burstLeft := 0
		for i := 0; i < n; i++ {
			if burstLeft == 0 && r.float() < cfg.BurstProb {
				burstLeft = 3 + int(r.uint64()%9) // 15-60 minutes
			}
			burst := 0.0
			if burstLeft > 0 {
				burst = cfg.BurstBoost
				burstLeft--
			}

			c := base + ampl*g.diurnal[i] + g.common[i] + r.norm()*cfg.NoiseStd + burst
			cpu[i] = clampPct(c)

			// Memory: slow drift around the class mean plus a small
			// CPU-coupled component (more activity touches more pages).
			m := mem0 + 0.06*(cpu[i]-base) + r.norm()*0.5
			mem[i] = clampPct(m)
		}
		tr.VMs = append(tr.VMs, &VM{ID: id, Class: class, CPU: cpu, Mem: mem})
	}
	return tr, nil
}

func clampPct(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 100 {
		return 100
	}
	return v
}
