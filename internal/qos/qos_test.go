package qos

import (
	"math"
	"testing"

	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

func TestQoSLimitsMatchTableI(t *testing.T) {
	// The "2x Degrad. Intel (QoS limit)" column of Table I.
	want := map[workload.Class]float64{
		workload.LowMem:  0.873,
		workload.MidMem:  3.127,
		workload.HighMem: 6.909,
	}
	for c, w := range want {
		if got := Limit(c); math.Abs(got-w)/w > 0.01 {
			t.Errorf("%v limit = %.3f, want %.3f", c, got, w)
		}
	}
}

func TestFig2Crossovers(t *testing.T) {
	// Section VI-B1: "high-mem and mid-mem workloads meet QoS
	// requirement till a minimum frequency of 1.8GHz, whereas low-mem
	// can scale down to 1.2GHz."
	ntc := platform.NTCServer()
	want := map[workload.Class]float64{
		workload.LowMem:  1.2,
		workload.MidMem:  1.8,
		workload.HighMem: 1.8,
	}
	for c, ghz := range want {
		f, err := MinFrequency(ntc, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if math.Abs(f.GHz()-ghz) > 0.05 {
			t.Errorf("%v min QoS frequency = %v, want %.1f GHz", c, f, ghz)
		}
	}
}

func TestNTCAt2GHzMeetsQoSForAllClasses(t *testing.T) {
	// Table I: the NTC server at 2 GHz is inside the QoS limit for
	// all three classes.
	ntc := platform.NTCServer()
	for _, c := range workload.Classes() {
		if !Meets(ntc, c, units.GHz(2)) {
			t.Errorf("%v: NTC at 2 GHz should meet QoS", c)
		}
	}
}

func TestCaviumMissesQoSForMemoryClasses(t *testing.T) {
	// Section III-A: Cavium was "unable to meet QoS constraints".
	cavium := platform.CaviumThunderX()
	if Meets(cavium, workload.MidMem, units.GHz(2)) {
		t.Error("Cavium mid-mem at 2 GHz unexpectedly meets QoS")
	}
	if Meets(cavium, workload.HighMem, units.GHz(2)) {
		t.Error("Cavium high-mem at 2 GHz unexpectedly meets QoS")
	}
	// Even flat out, high-mem cannot recover the 2x limit on Cavium.
	if Meets(cavium, workload.HighMem, cavium.FMax) {
		t.Error("Cavium high-mem at FMax unexpectedly meets QoS")
	}
}

func TestNormalizedTimeAtCrossoverIsOne(t *testing.T) {
	ntc := platform.NTCServer()
	// At the published crossovers the normalised time is ≈1.
	if got := NormalizedTime(ntc, workload.LowMem, units.GHz(1.2)); math.Abs(got-1) > 0.01 {
		t.Errorf("low-mem at 1.2 GHz normalised = %.3f, want ≈1", got)
	}
	if got := NormalizedTime(ntc, workload.MidMem, units.GHz(1.8)); math.Abs(got-1) > 0.01 {
		t.Errorf("mid-mem at 1.8 GHz normalised = %.3f, want ≈1", got)
	}
}

func TestMinFrequencyAll(t *testing.T) {
	ntc := platform.NTCServer()
	f, err := MinFrequencyAll(ntc)
	if err != nil {
		t.Fatal(err)
	}
	// Mixed servers are constrained by mid/high-mem: 1.8 GHz.
	if math.Abs(f.GHz()-1.8) > 0.05 {
		t.Errorf("MinFrequencyAll = %v, want 1.8 GHz", f)
	}
}

func TestMinFrequencyUnreachable(t *testing.T) {
	cavium := platform.CaviumThunderX()
	if _, err := MinFrequency(cavium, workload.HighMem); err == nil {
		t.Error("expected ErrUnreachable for Cavium high-mem")
	}
}

func TestNormalizedTimeMonotone(t *testing.T) {
	ntc := platform.NTCServer()
	for _, c := range workload.Classes() {
		prev := math.Inf(1)
		for g := 0.1; g <= 3.1; g += 0.1 {
			cur := NormalizedTime(ntc, c, units.GHz(g))
			if cur > prev+1e-12 {
				t.Fatalf("%v: normalised time rose with frequency at %.1f GHz", c, g)
			}
			prev = cur
		}
	}
}

// MinFrequencyAll returns the highest per-class minimum frequency: a
// server hosting a mix of all classes must run at least this fast.
func MinFrequencyAll(p *platform.Platform) (units.Frequency, error) {
	var out units.Frequency
	for _, c := range workload.Classes() {
		f, err := MinFrequency(p, c)
		if err != nil {
			return 0, err
		}
		if f > out {
			out = f
		}
	}
	return out, nil
}
