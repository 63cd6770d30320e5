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
// Real traces can be ingested too: Source describes a
// trace-ingestion backend ("synthetic", "csv:path", "cluster:path"
// specs via ParseSourceSpec), covering the generator,
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
	"runtime"
	"slices"
	"sync"
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

// Trace is a set of VM utilisation histories on a common clock.
type Trace struct {
	Interval time.Duration
	VMs      []*VM

	// root is the trace this one is a view of (see SubsetInto); nil for a
	// trace that owns its VMs.
	root *Trace
}

// SubsetInto makes dst a view of the VMs at idxs, in that order,
// reusing dst's VM slice, and returns dst. The view shares the
// parent's *VM values read-only and records the parent's root, so a
// view of a view has the same root: whatever was checked on the root's
// samples holds for every view derived from it.
func (t *Trace) SubsetInto(dst *Trace, idxs []int) *Trace {
	*dst = Trace{Interval: t.Interval, VMs: slices.Grow(dst.VMs[:0], len(idxs)), root: t.Root()}
	for _, v := range idxs {
		dst.VMs = append(dst.VMs, t.VMs[v])
	}
	return dst
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
	// It, CommonStd, NoiseStd and BurstBoost must lie in [0, 1e6].
	DiurnalAmplitude float64

	// CommonStd is the standard deviation of the shared per-group
	// random walk (correlated component).
	CommonStd float64

	// NoiseStd is the per-VM white-noise standard deviation.
	NoiseStd float64

	// BurstProb is the per-VM per-sample probability of an abrupt
	// load burst (the unpredictable events behind SLA violations),
	// in [0, 1].
	BurstProb float64

	// BurstBoost is the burst magnitude in percent points.
	BurstBoost float64

	// BaseMin/BaseMax bound the per-VM baseline CPU level:
	// 0 <= BaseMin <= BaseMax <= 100.
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

// maxPoints caps the percent-point magnitudes (DiurnalAmplitude,
// CommonStd, NoiseStd, BurstBoost). Samples saturate at 0 or 100 long
// before it; far above it a sample's terms can overflow to opposite
// infinities, whose sum is a NaN sample.
const maxPoints = 1e6

// validate rejects a Config the generator cannot honour: a
// non-positive VMs or Days, a non-finite or out-of-range float field,
// or a baseline range outside 0 <= BaseMin <= BaseMax <= 100. Groups
// <= 0 is not an error; Generate uses one group.
func (c *Config) validate() error {
	if c.VMs <= 0 || c.Days <= 0 {
		return errors.New("trace: VMs and Days must be positive")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DiurnalAmplitude", c.DiurnalAmplitude},
		{"CommonStd", c.CommonStd},
		{"NoiseStd", c.NoiseStd},
		{"BurstBoost", c.BurstBoost},
	} {
		if !(f.v >= 0 && f.v <= maxPoints) {
			return fmt.Errorf("trace: %s = %v, want percent points in [0, %g]", f.name, f.v, maxPoints)
		}
	}
	if !(c.BurstProb >= 0 && c.BurstProb <= 1) {
		return fmt.Errorf("trace: BurstProb = %v, want a probability in [0, 1]", c.BurstProb)
	}
	if !(c.BaseMin >= 0 && c.BaseMin <= 100) {
		return fmt.Errorf("trace: BaseMin = %v, want a CPU percent in [0, 100]", c.BaseMin)
	}
	if !(c.BaseMax >= c.BaseMin && c.BaseMax <= 100) {
		return fmt.Errorf("trace: BaseMax = %v, want a CPU percent in [BaseMin, 100] = [%v, 100]", c.BaseMax, c.BaseMin)
	}
	return nil
}

// rng is a small deterministic xorshift generator so traces are
// reproducible across platforms and Go versions.
type rng struct{ state uint64 }

func newRNG(seed int64) *rng {
	return &rng{state: uint64(seed)*2862933555777941757 + 3037000493 | 1}
}

// step is one xorshift step: the state that follows s.
func step(s uint64) uint64 {
	s ^= s << 13
	s ^= s >> 7
	s ^= s << 17
	return s
}

// unit maps a state to a uniform float64 in [0, 1): its top 53 bits
// over 2⁵³. The int64 conversion is exact (the value is below 2⁵³) and
// spares amd64 the unsigned conversion's branch. The outer float64
// rounds the quotient, which compiles to a multiply by 2⁻⁵³, so no
// build fuses it into the sum it feeds.
func unit(s uint64) float64 {
	return float64(float64(int64(s>>11)) / (1 << 53))
}

func (r *rng) uint64() uint64 {
	r.state = step(r.state)
	return r.state
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return unit(r.uint64()) }

// norm returns an approximately standard-normal variate
// (Irwin–Hall sum of 12 uniforms).
func (r *rng) norm() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.float()
	}
	return s - 6
}

// normDraws is the number of uniforms a sample's two norms consume.
const normDraws = 24

// normJump holds the xorshift state normDraws steps on, one table per
// byte of the state: normJump[b][v] is the state reached from
// uint64(v) << (8*b). The shifts and xors of a step are linear over
// GF(2), so the state reached from s is the xor of the entries for
// s's eight bytes (16 KB of tables in place of 24 steps).
var normJump = func() (t [8][256]uint64) {
	for b := range t {
		for v := range t[b] {
			r := rng{uint64(v) << (8 * b)}
			for range normDraws {
				r.uint64()
			}
			t[b][v] = r.state
		}
	}
	return t
}()

// jumpNorms advances r by normDraws steps, as two norm calls do.
func (r *rng) jumpNorms() {
	s := r.state
	r.state = normJump[0][byte(s)] ^ normJump[1][byte(s>>8)] ^
		normJump[2][byte(s>>16)] ^ normJump[3][byte(s>>24)] ^
		normJump[4][byte(s>>32)] ^ normJump[5][byte(s>>40)] ^
		normJump[6][byte(s>>48)] ^ normJump[7][byte(s>>56)]
}

// Generate synthesises a trace per cfg. The same cfg always produces
// the same trace, whatever GOMAXPROCS is.
//
// The trace is one xorshift stream: the group walks first, then each
// VM's draws in VM order. Generate walks that stream twice. Pass 1
// runs serially in the caller: it draws the group walks, then records
// each VM's start state and skips the VM's draws, deciding its bursts
// but replacing each sample's two norms by one 24-step jump (jumpNorms).
// It hands the start states out four consecutive VMs at a time. Pass 2
// runs the lane kernel (vms4) on each such group, on GOMAXPROCS-1
// goroutines that pick a group up as soon as pass 1 has recorded it,
// and on the caller once pass 1 ends. The kernel draws its four VMs'
// samples side by side, each lane from its own start state with the
// serial stream's draws and float operations in the serial order, so
// four independent xorshift chains overlap where one VM's chain would
// run alone. Each VM lands at its own index, so the result does not
// depend on scheduling.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Groups <= 0 {
		cfg.Groups = 1
	}
	r := newRNG(cfg.Seed)
	n := cfg.Days * SamplesPerDay

	groups := make([]group, cfg.Groups)
	for g := range groups {
		phase := float64(r.float() * float64(SamplesPerDay))
		groups[g].diurnal = make([]float64, n)
		for i := range groups[g].diurnal {
			tDay := float64((float64(i) + phase) / SamplesPerDay * 2 * math.Pi)
			groups[g].diurnal[i] = float64(0.75*math.Sin(tDay)) + float64(0.25*math.Sin(2*tDay))
		}
		walk := make([]float64, n)
		level := 0.0
		for i := 0; i < n; i++ {
			level += float64(r.norm() * cfg.CommonStd)
			// Mean-revert so the walk stays bounded.
			level *= 0.98
			walk[i] = level
		}
		groups[g].common = walk
	}

	tr := &Trace{Interval: DefaultInterval, VMs: make([]*VM, cfg.VMs)}
	quads := (cfg.VMs + lanes - 1) / lanes
	starts := make(chan laneStarts, quads)
	work := func() {
		var idle []float64
		for s := range starts {
			if s.id+lanes > cfg.VMs && idle == nil {
				idle = make([]float64, n)
			}
			cfg.vms4(tr.VMs, s, groups, idle)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0)-1, quads) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	for id := 0; id < cfg.VMs; id += lanes {
		s := laneStarts{id: id}
		for j := range min(lanes, cfg.VMs-id) {
			s.state[j] = r.state
			r.skipVM(cfg.BurstProb, n)
		}
		starts <- s
	}
	close(starts)
	work()
	wg.Wait()
	return tr, nil
}

// group is one correlation group's structure: the diurnal shape
// (day/night sinusoid plus a sharper mid-peak harmonic, phase-shifted
// per group) and a shared smoothed random walk that correlates
// members' loads.
type group struct {
	diurnal []float64
	common  []float64
}

// lanes is the number of VMs the kernel draws side by side.
const lanes = 4

// laneStarts is a group of up to lanes consecutive VMs: the first
// one's index and the stream state each VM's draws start from.
type laneStarts struct {
	id    int
	state [lanes]uint64
}

// lane is what one VM's samples are made of besides its draws: its
// group's series, its header values and the rows its samples land in.
type lane struct {
	diurnal, common  []float64
	base, ampl, mem0 float64
	cpu, mem         []float64
}

// head draws a VM's class, baseline, diurnal swing and memory level
// from state s into l, and returns the class and the state after them.
func (cfg *Config) head(l *lane, s uint64) (workload.Class, uint64) {
	r := rng{s}
	var class workload.Class
	switch p := r.float(); {
	case p < 0.40:
		class = workload.LowMem
	case p < 0.75:
		class = workload.MidMem
	default:
		class = workload.HighMem
	}
	l.base = cfg.BaseMin + float64(r.float()*(cfg.BaseMax-cfg.BaseMin))
	l.ampl = cfg.DiurnalAmplitude * (0.7 + float64(0.6*r.float()))
	l.mem0 = float64(memMean(class) * (0.85 + float64(0.3*r.float())))
	return class, r.state
}

// burst is one sample's burst decision for a lane at state s with left
// samples of a running burst to go: while none runs it draws a
// uniform, and one below p starts a burst of 3 + (next draw mod 9)
// samples (15-60 minutes). It returns the state and the samples left
// after this one, and the sample's burst in percent points.
func burst(s, left uint64, p, boost float64) (uint64, uint64, float64) {
	if left == 0 {
		if s = step(s); unit(s) >= p {
			return s, 0, 0
		}
		s = step(s)
		left = 3 + s%9
	}
	return s, left - 1, boost
}

// setCPU sets sample i's CPU from its first norm z and its burst.
func (l *lane) setCPU(i int, z, burst, noiseStd float64) {
	c := l.base + float64(l.ampl*l.diurnal[i]) + l.common[i] + float64(z*noiseStd) + burst
	l.cpu[i] = clampPct(c)
}

// setMem sets sample i's memory from its CPU and its second norm z:
// slow drift around the class mean plus a small CPU-coupled component
// (more activity touches more pages).
func (l *lane) setMem(i int, z float64) {
	m := l.mem0 + float64(0.06*(l.cpu[i]-l.base)) + float64(z*0.5)
	l.mem[i] = clampPct(m)
}

// vms4 is the per-VM body of Generate, run on the up to four VMs from
// s.id on: lane j draws VM s.id+j's header, then its samples (see
// samples), from s.state[j]. Lanes past the last VM draw from state 0
// into idle, which nobody reads, and store no VM.
func (cfg *Config) vms4(vms []*VM, s laneStarts, groups []group, idle []float64) {
	var l [lanes]lane
	for j := range l {
		id := s.id + j
		g := &groups[id%len(groups)]
		l[j].diurnal, l[j].common = g.diurnal, g.common
		var class workload.Class
		class, s.state[j] = cfg.head(&l[j], s.state[j])
		if id >= len(vms) {
			l[j].cpu, l[j].mem = idle, idle
			continue
		}
		n := len(g.diurnal)
		l[j].cpu, l[j].mem = make([]float64, n), make([]float64, n)
		vms[id] = &VM{ID: id, Class: class, CPU: l[j].cpu, Mem: l[j].mem}
	}
	cfg.samples(&l, s.state)
}

// samples draws the four lanes' samples, lane j from state st[j],
// making the serial stream's draws and float operations in its order:
// a sample's burst decision, then one norm for CPU and one for memory,
// each a sum of 12 uniforms from 0. The lanes' states, burst counters
// and norm sums are plain locals, so the four chains stay in registers
// and overlap.
//
// The loop makes no call, so the runtime preempts it asynchronously
// and then scans its frame conservatively, stale slots included: it
// sees the lanes alone, never the trace's VM list, so a stale word
// left by an earlier trace's build can keep a few of that trace's rows
// alive for one collection, not the whole trace.
func (cfg *Config) samples(l *[lanes]lane, st [lanes]uint64) {
	n := len(l[0].cpu)
	p, boost, noiseStd := cfg.BurstProb, cfg.BurstBoost, cfg.NoiseStd
	s0, s1, s2, s3 := st[0], st[1], st[2], st[3]
	var b0, b1, b2, b3 uint64
	for i := range n {
		var u0, u1, u2, u3 float64
		s0, b0, u0 = burst(s0, b0, p, boost)
		s1, b1, u1 = burst(s1, b1, p, boost)
		s2, b2, u2 = burst(s2, b2, p, boost)
		s3, b3, u3 = burst(s3, b3, p, boost)

		var z0, z1, z2, z3 float64
		for range 12 {
			s0, s1, s2, s3 = step(s0), step(s1), step(s2), step(s3)
			z0, z1, z2, z3 = z0+unit(s0), z1+unit(s1), z2+unit(s2), z3+unit(s3)
		}
		l[0].setCPU(i, z0-6, u0, noiseStd)
		l[1].setCPU(i, z1-6, u1, noiseStd)
		l[2].setCPU(i, z2-6, u2, noiseStd)
		l[3].setCPU(i, z3-6, u3, noiseStd)

		z0, z1, z2, z3 = 0, 0, 0, 0
		for range 12 {
			s0, s1, s2, s3 = step(s0), step(s1), step(s2), step(s3)
			z0, z1, z2, z3 = z0+unit(s0), z1+unit(s1), z2+unit(s2), z3+unit(s3)
		}
		l[0].setMem(i, z0-6)
		l[1].setMem(i, z1-6)
		l[2].setMem(i, z2-6)
		l[3].setMem(i, z3-6)
	}
}

// skipVM advances r past one VM's draws in vms4 without computing its
// samples: the 4 header draws, each sample's burst decision (a uniform
// while no burst runs, a uint64 when one starts) and a jump over the
// sample's two norms.
func (r *rng) skipVM(burstProb float64, n int) {
	for range 4 {
		r.uint64()
	}
	burstLeft := 0
	for range n {
		if burstLeft == 0 && r.float() < burstProb {
			burstLeft = 3 + int(r.uint64()%9)
		}
		if burstLeft > 0 {
			burstLeft--
		}
		r.jumpNorms()
	}
}

// memMean is a memory class's mean utilisation. The class mixture
// roughly matches the paper's profiling split (low:mid:high ≈
// 40%:35%:25%).
func memMean(c workload.Class) float64 {
	switch c {
	case workload.LowMem:
		return 7
	case workload.MidMem:
		return 25
	default:
		return 43
	}
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
