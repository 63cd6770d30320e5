package workload

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestPaperMemoryFootprints(t *testing.T) {
	// Section III-B: low-mem 70 MB (7%), mid-mem 255 MB (25%),
	// high-mem 435 MB (43%).
	cases := []struct {
		class Class
		mb    float64
		pct   units.Percent
	}{
		{LowMem, 70, 7},
		{MidMem, 255, 25},
		{HighMem, 435, 43},
	}
	for _, c := range cases {
		s := Get(c.class)
		if got := s.MemFootprint.MB(); math.Abs(got-c.mb) > 1e-9 {
			t.Errorf("%v footprint = %v MB, want %v", c.class, got, c.mb)
		}
		if s.MemPercent != c.pct {
			t.Errorf("%v percent = %v, want %v", c.class, s.MemPercent, c.pct)
		}
	}
}

func TestMemoryIntensityOrdering(t *testing.T) {
	// MPKI and LLC pressure must rise with the memory class.
	low, mid, high := Get(LowMem), Get(MidMem), Get(HighMem)
	if !(low.MPKI < mid.MPKI && mid.MPKI < high.MPKI) {
		t.Errorf("MPKI ordering violated: %v, %v, %v", low.MPKI, mid.MPKI, high.MPKI)
	}
	if !(low.LLCAPKI < mid.LLCAPKI && mid.LLCAPKI < high.LLCAPKI) {
		t.Errorf("LLCAPKI ordering violated: %v, %v, %v", low.LLCAPKI, mid.LLCAPKI, high.LLCAPKI)
	}
	if !(low.HotSet < mid.HotSet && mid.HotSet < high.HotSet) {
		t.Errorf("hot-set ordering violated")
	}
}

func TestClassesAndStrings(t *testing.T) {
	cs := Classes()
	if len(cs) != 3 {
		t.Fatalf("len(Classes()) = %d, want 3", len(cs))
	}
	want := []string{"low-mem", "mid-mem", "high-mem"}
	for i, c := range cs {
		if c.String() != want[i] {
			t.Errorf("Classes()[%d].String() = %q, want %q", i, c.String(), want[i])
		}
	}
	if s := Class(99).String(); s != "Class(99)" {
		t.Errorf("unknown class string = %q", s)
	}
}

func TestGetPanicsOnUnknownClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Get(Class(99)) did not panic")
		}
	}()
	Get(Class(99))
}

func TestClassForMemPercent(t *testing.T) {
	cases := []struct {
		pct  units.Percent
		want Class
	}{
		{2, LowMem}, {7, LowMem}, {15, LowMem},
		{16, MidMem}, {25, MidMem}, {33, MidMem},
		{34, HighMem}, {43, HighMem}, {90, HighMem},
	}
	for _, c := range cases {
		if got := ClassForMemPercent(c.pct); got != c.want {
			t.Errorf("ClassForMemPercent(%v) = %v, want %v", c.pct, got, c.want)
		}
	}
}

func TestWriteFractionSane(t *testing.T) {
	for _, c := range Classes() {
		s := Get(c)
		if s.WriteFraction < 0 || s.WriteFraction > 1 {
			t.Errorf("%v write fraction %v outside [0,1]", c, s.WriteFraction)
		}
		if s.Instructions <= 0 {
			t.Errorf("%v instructions %v not positive", c, s.Instructions)
		}
	}
}

// ClassForMemPercent maps a VM's average memory utilisation (percent
// of its 1 GB container) to the nearest profiled class, mirroring the
// paper's profiling split.
func ClassForMemPercent(p units.Percent) Class {
	switch {
	case p < 16: // closest to 7%
		return LowMem
	case p < 34: // closest to 25%
		return MidMem
	default: // closest to 43%
		return HighMem
	}
}
