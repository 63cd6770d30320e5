package trace

import (
	"errors"
	"math"

	"repro/internal/workload"
)

// This file keeps a copy of the serial generator: one xorshift stream
// walked group by group and then VM by VM, every sample drawn in order,
// one VM at a time. It is the only scalar per-VM body left: Generate
// splits the stream into a serial pass that records each VM's start
// state and a parallel pass whose lane kernel draws four consecutive
// VMs side by side, each lane from its own start state, with idle
// lanes after the last VM. The tests in generate_test.go check that
// Generate returns this function's trace bit for bit. Its products
// are rounded explicitly, float64(x*y), as Generate's are, so no build
// fuses a multiply-add in either and the two agree on every platform.

// refGenerate is the serial generator.
func refGenerate(cfg Config) (*Trace, error) {
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

		base := cfg.BaseMin + float64(r.float()*(cfg.BaseMax-cfg.BaseMin))
		ampl := cfg.DiurnalAmplitude * (0.7 + float64(0.6*r.float()))
		mem0 := float64(memMean(class) * (0.85 + float64(0.3*r.float())))

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

			c := base + float64(ampl*g.diurnal[i]) + g.common[i] + float64(r.norm()*cfg.NoiseStd) + burst
			cpu[i] = clampPct(c)

			// Memory: slow drift around the class mean plus a small
			// CPU-coupled component (more activity touches more pages).
			m := mem0 + float64(0.06*(cpu[i]-base)) + float64(r.norm()*0.5)
			mem[i] = clampPct(m)
		}
		tr.VMs = append(tr.VMs, &VM{ID: id, Class: class, CPU: cpu, Mem: mem})
	}
	return tr, nil
}
