package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func smallConfig(seed int64) Config {
	cfg := DefaultConfig(seed)
	cfg.VMs = 60
	cfg.Days = 2
	return cfg
}

func TestGenerateShape(t *testing.T) {
	tr, err := Generate(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.VMs) != 600 {
		t.Errorf("VMs = %d, want 600", len(tr.VMs))
	}
	if got := tr.Samples(); got != 7*288 {
		t.Errorf("samples = %d, want 2016 (one week at 5 min)", got)
	}
	if got := tr.Slots(); got != 168 {
		t.Errorf("slots = %d, want 168 (one week of hours)", got)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.VMs {
		for s := range a.VMs[i].CPU {
			if a.VMs[i].CPU[s] != b.VMs[i].CPU[s] || a.VMs[i].Mem[s] != b.VMs[i].Mem[s] {
				t.Fatalf("traces differ at VM %d sample %d", i, s)
			}
		}
	}
	c, err := Generate(smallConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for s := range a.VMs[0].CPU {
		if a.VMs[0].CPU[s] != c.VMs[0].CPU[s] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestDailyPeriodicity(t *testing.T) {
	// The aggregate load must show strong day-over-day correlation:
	// the property that makes ARIMA forecasting effective.
	tr, err := Generate(DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if r := tr.DailyAutocorrelation(); r < 0.6 {
		t.Errorf("daily autocorrelation = %.2f, want >= 0.6", r)
	}
}

func TestCorrelationGroups(t *testing.T) {
	cfg := DefaultConfig(11)
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	intra := tr.MeanIntraGroupCorrelation(cfg.Groups)
	cross := tr.MeanCrossGroupCorrelation(cfg.Groups)
	if intra < 0.3 {
		t.Errorf("intra-group correlation = %.2f, want >= 0.3", intra)
	}
	if intra-cross < 0.15 {
		t.Errorf("intra (%.2f) should clearly exceed cross-group (%.2f)", intra, cross)
	}
}

func TestClassSharesMixture(t *testing.T) {
	tr, err := Generate(DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	shares := tr.ClassShares()
	// Expect roughly 40/35/25 ±10 points.
	want := [3]float64{0.40, 0.35, 0.25}
	for i := range shares {
		if math.Abs(shares[i]-want[i]) > 0.10 {
			t.Errorf("class %d share = %.2f, want ≈%.2f", i, shares[i], want[i])
		}
	}
}

func TestMemLevelsMatchClasses(t *testing.T) {
	tr, err := Generate(DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	// Mean per-class memory should straddle the profiled levels
	// (7/25/43% of the VM container).
	sums := map[int]float64{}
	counts := map[int]int{}
	for _, vm := range tr.VMs {
		sums[int(vm.Class)] += vm.MeanMem()
		counts[int(vm.Class)]++
	}
	means := [3]float64{}
	for c := 0; c < 3; c++ {
		means[c] = sums[c] / float64(counts[c])
	}
	if means[0] < 4 || means[0] > 11 {
		t.Errorf("low-mem mean = %.1f%%, want ≈7%%", means[0])
	}
	if means[1] < 20 || means[1] > 30 {
		t.Errorf("mid-mem mean = %.1f%%, want ≈25%%", means[1])
	}
	if means[2] < 36 || means[2] > 50 {
		t.Errorf("high-mem mean = %.1f%%, want ≈43%%", means[2])
	}
}

func TestValidateCatchesRaggedAndOutOfRange(t *testing.T) {
	tr, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tr.VMs[0].CPU = tr.VMs[0].CPU[:10]
	if err := tr.Validate(); err == nil {
		t.Error("ragged trace validated")
	}
	tr2, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	tr2.VMs[1].Mem[5] = 150
	if err := tr2.Validate(); err == nil {
		t.Error("out-of-range trace validated")
	}
	tr2.VMs[1].Mem[5] = math.NaN()
	if err := tr2.Validate(); err == nil {
		t.Error("NaN sample validated")
	}
	empty := &Trace{}
	if err := empty.Validate(); err == nil {
		t.Error("empty trace validated")
	}
}

// TestGenerateRejectsBadConfig pins the Config checks. Before them,
// the NaN, out-of-range and infinite cases returned a trace (of NaN
// samples, without bursts, with inverted baselines or pinned at 100)
// and a nil error.
func TestGenerateRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*Config)
		field string
	}{
		{"vms-0", func(c *Config) { c.VMs = 0 }, "VMs and Days"},
		{"days-0", func(c *Config) { c.Days = 0 }, "VMs and Days"},
		{"common-std-nan", func(c *Config) { c.CommonStd = math.NaN() }, "CommonStd"},
		{"burst-prob-nan", func(c *Config) { c.BurstProb = math.NaN() }, "BurstProb"},
		{"burst-prob-2", func(c *Config) { c.BurstProb = 2 }, "BurstProb"},
		{"base-inverted", func(c *Config) { c.BaseMin, c.BaseMax = 80, 10 }, "BaseMax"},
		{"amplitude-inf", func(c *Config) { c.DiurnalAmplitude = math.Inf(1) }, "DiurnalAmplitude"},
		{"noise-negative", func(c *Config) { c.NoiseStd = -1 }, "NoiseStd"},
		{"boost-negative", func(c *Config) { c.BurstBoost = -35 }, "BurstBoost"},
		{"burst-prob-negative", func(c *Config) { c.BurstProb = -0.1 }, "BurstProb"},
		{"base-min-negative", func(c *Config) { c.BaseMin = -5 }, "BaseMin"},
		{"base-max-over-100", func(c *Config) { c.BaseMax = 101 }, "BaseMax"},
		{"base-min-inf", func(c *Config) { c.BaseMin = math.Inf(-1) }, "BaseMin"},
		{"common-std-huge", func(c *Config) { c.CommonStd = 1e300 }, "CommonStd"},
	} {
		cfg := smallConfig(1)
		tc.edit(&cfg)
		_, err := Generate(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "trace: "+tc.field+" ") {
			t.Errorf("%s: err = %v, want a trace: error naming %s", tc.name, err, tc.field)
		}
	}
	// The shipped shapes stay valid: a group count of 0 (one group)
	// and the correlation ablation's CommonStd values.
	for _, std := range []float64{0, 2, 4} {
		cfg := smallConfig(1)
		cfg.CommonStd, cfg.Groups = std, 0
		if _, err := Generate(cfg); err != nil {
			t.Errorf("CommonStd %v, Groups 0: %v", std, err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := Generate(smallConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.VMs) != len(tr.VMs) || back.Samples() != tr.Samples() {
		t.Fatalf("round trip shape: %d VMs / %d samples, want %d / %d",
			len(back.VMs), back.Samples(), len(tr.VMs), tr.Samples())
	}
	for i := range tr.VMs {
		if back.VMs[i].Class != tr.VMs[i].Class {
			t.Fatalf("VM %d class changed", i)
		}
		for s := range tr.VMs[i].CPU {
			// CSV stores 3 decimals.
			if math.Abs(back.VMs[i].CPU[s]-tr.VMs[i].CPU[s]) > 0.001 {
				t.Fatalf("VM %d sample %d cpu %.5f != %.5f", i, s, back.VMs[i].CPU[s], tr.VMs[i].CPU[s])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",      // no header
		"a,b\n", // bad header
		"vm_id,class,sample,cpu_pct,mem_pct\nx,low-mem,0,1,1\n",    // bad id
		"vm_id,class,sample,cpu_pct,mem_pct\n0,weird,0,1,1\n",      // bad class
		"vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,1,1,1\n",    // out-of-order sample
		"vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,0,abc,1\n",  // bad cpu
		"vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,0,1,abc\n",  // bad mem
		"vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,zero,1,1\n", // bad sample
		"vm_id,class,sample,cpu_pct,mem_pct\n0,low-mem,0,400,1\n",  // out of range
	}
	for i, s := range cases {
		if _, err := ReadCSV(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: bad CSV accepted", i)
		}
	}
}

func TestSlotWindow(t *testing.T) {
	tr, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tr.SlotWindow(0)
	if lo != 0 || hi != 12 {
		t.Errorf("slot 0 window = [%d,%d), want [0,12)", lo, hi)
	}
	lo, hi = tr.SlotWindow(5)
	if lo != 60 || hi != 72 {
		t.Errorf("slot 5 window = [%d,%d), want [60,72)", lo, hi)
	}
}

func TestAggregateProperty(t *testing.T) {
	// Aggregate equals the manual sum for a random sample index.
	prop := func(seed int64) bool {
		tr, err := Generate(smallConfig(seed % 1000))
		if err != nil {
			return false
		}
		agg := tr.AggregateCPU()
		idx := int(uint(seed) % uint(tr.Samples()))
		sum := 0.0
		for _, vm := range tr.VMs {
			sum += vm.CPU[idx]
		}
		return math.Abs(agg[idx]-sum) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestDurationAndInterval(t *testing.T) {
	tr, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Duration().Hours(); math.Abs(got-48) > 1e-9 {
		t.Errorf("duration = %v h, want 48", got)
	}
}

// SlotWindow returns the sample index range [lo, hi) of slot s.
func (t *Trace) SlotWindow(s int) (lo, hi int) {
	return s * SamplesPerSlot, (s + 1) * SamplesPerSlot
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
