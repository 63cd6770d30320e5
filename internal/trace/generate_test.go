package trace

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// sameTrace reports the first difference between got and want: shape,
// interval, a VM's ID or class, or any CPU/Mem sample's bits.
func sameTrace(got, want *Trace) error {
	if got.Interval != want.Interval || len(got.VMs) != len(want.VMs) {
		return fmt.Errorf("shape %v x %d VMs, want %v x %d", got.Interval, len(got.VMs), want.Interval, len(want.VMs))
	}
	for k, w := range want.VMs {
		g := got.VMs[k]
		if g.ID != w.ID || g.Class != w.Class || len(g.CPU) != len(w.CPU) || len(g.Mem) != len(w.Mem) {
			return fmt.Errorf("VM %d: id %d class %v, %d/%d samples; want id %d class %v, %d/%d",
				k, g.ID, g.Class, len(g.CPU), len(g.Mem), w.ID, w.Class, len(w.CPU), len(w.Mem))
		}
		for i := range w.CPU {
			if math.Float64bits(g.CPU[i]) != math.Float64bits(w.CPU[i]) ||
				math.Float64bits(g.Mem[i]) != math.Float64bits(w.Mem[i]) {
				return fmt.Errorf("VM %d sample %d: cpu %v mem %v, want %v %v",
					k, i, g.CPU[i], g.Mem[i], w.CPU[i], w.Mem[i])
			}
		}
	}
	return nil
}

// TestGenerateMatchesReference checks that the two-pass generator
// returns the serial reference's trace bit for bit, at GOMAXPROCS 1, 2
// and 8, over seeds (zero and negative included) × the paper's 600-VM
// two-week shape, a small shape, a high-burst shape and shapes at the
// lane kernel's edges: VM counts that leave one to three lanes of the
// last group idle, bursts never and always, and one or seven groups
// (seven puts four different groups' series in one lane group). Under
// -race the paper shape is left out: it takes minutes there.
func TestGenerateMatchesReference(t *testing.T) {
	highBurst := DefaultConfig(0)
	highBurst.VMs, highBurst.Days, highBurst.Groups = 64, 3, 5
	highBurst.BurstProb, highBurst.BurstBoost = 0.3, 60
	shapes := map[string]Config{"small": smallConfig(0), "high-burst": highBurst}
	edge := func(name string, set func(*Config)) {
		cfg := smallConfig(0)
		cfg.VMs, cfg.Days = 22, 1
		set(&cfg)
		shapes[name] = cfg
	}
	for _, vms := range []int{1, 3, 5, 7} {
		edge(fmt.Sprintf("vms-%d", vms), func(c *Config) { c.VMs = vms })
	}
	for _, p := range []float64{0, 1} {
		edge(fmt.Sprintf("burst-prob-%g", p), func(c *Config) { c.BurstProb = p })
	}
	for _, groups := range []int{1, 7} {
		edge(fmt.Sprintf("groups-%d", groups), func(c *Config) { c.Groups = groups })
	}
	if !raceEnabled {
		paper := DefaultConfig(0)
		paper.Days = 14
		shapes["paper"] = paper
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, shape := range shapes {
		for _, seed := range []int64{0, -7, 1, 2018, math.MaxInt64} {
			cfg := shape
			cfg.Seed = seed
			want, err := refGenerate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				got, err := Generate(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameTrace(got, want); err != nil {
					t.Fatalf("%s seed %d GOMAXPROCS %d: %v", name, seed, procs, err)
				}
			}
		}
	}
}

// TestNormJumpMatchesSteps checks the jump tables against stepping the
// generator normDraws times, from states with every byte exercised.
func TestNormJumpMatchesSteps(t *testing.T) {
	r := newRNG(5)
	for i := 0; i < 10000; i++ {
		s := r.uint64()
		jumped, stepped := rng{s}, rng{s}
		jumped.jumpNorms()
		for range normDraws {
			stepped.uint64()
		}
		if jumped != stepped {
			t.Fatalf("from %#x: jump reached %#x, %d steps %#x", s, jumped.state, normDraws, stepped.state)
		}
	}
}

// FuzzGenerate drives every Config field, with VMs, Days and Groups
// folded to small ranges (at most 64, 3 and 64). Generate must never
// panic and must reject every non-finite field; a config it accepts
// must give a trace that validates and equals the serial reference
// bit for bit. The seeds are the committed corpus under
// testdata/fuzz/FuzzGenerate.
func FuzzGenerate(f *testing.F) {
	f.Fuzz(func(t *testing.T, vms, days, groups int, seed int64,
		amplitude, commonStd, noiseStd, burstProb, burstBoost, baseMin, baseMax float64) {
		cfg := Config{
			VMs: vms % 65, Days: days % 4, Groups: groups % 65, Seed: seed,
			DiurnalAmplitude: amplitude, CommonStd: commonStd, NoiseStd: noiseStd,
			BurstProb: burstProb, BurstBoost: burstBoost, BaseMin: baseMin, BaseMax: baseMax,
		}
		tr, err := Generate(cfg)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("Generate error %q lacks the package prefix", err)
			}
			return
		}
		for _, v := range []float64{amplitude, commonStd, noiseStd, burstProb, burstBoost, baseMin, baseMax} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("Generate accepted a non-finite field: %+v", cfg)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Generate(%+v) gave an invalid trace: %v", cfg, err)
		}
		want, err := refGenerate(cfg)
		if err != nil {
			t.Fatalf("reference rejected %+v: %v", cfg, err)
		}
		if err := sameTrace(tr, want); err != nil {
			t.Fatalf("Generate(%+v) differs from the reference: %v", cfg, err)
		}
	})
}
