package alloc

import (
	"testing"

	"repro/internal/mathx"
)

// MigrationRate returns migrations / total VMs.
func (m MigrationStats) MigrationRate() float64 {
	total := m.Migrations + m.Stayed
	if total == 0 {
		return 0
	}
	return float64(m.Migrations) / float64(total)
}

func TestVermaBinarise(t *testing.T) {
	v := NewVerma()
	got := make([]float64, 5)
	v.binarise(got, []float64{10, 80, 100, 70, 20})
	want := []float64{0, 1, 1, 0, 0} // threshold 75
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("binarise[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// All-zero pattern stays zero.
	z := []float64{1, 1, 1} // binarise overwrites stale contents
	v.binarise(z, []float64{0, 0, 0})
	for i, x := range z {
		if x != 0 {
			t.Errorf("zero pattern binarised to %v at %d", x, i)
		}
	}
}

func TestVermaAllocatesAll(t *testing.T) {
	spec := ntcSpec()
	vms := antiphaseVMs(20, 10, 90, 15, 12)
	a, err := NewVerma().Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(len(vms)); err != nil {
		t.Error(err)
	}
	if !a.FixedFreq || a.PlannedFreq != spec.FMax {
		t.Error("Verma should race at F_max (consolidation-era policy)")
	}
}

func TestVermaQuantisationLosesEnvelope(t *testing.T) {
	// The paper's criticism made concrete: two VMs with very
	// different envelopes but the same binary peak sequence look
	// identical to Verma while COAT's continuous correlation
	// distinguishes them.
	v := NewVerma()
	a := []float64{10, 10, 100, 100, 10, 10}
	b := []float64{70, 70, 100, 100, 70, 70} // much heavier off-peak
	ba, bb := make([]float64, len(a)), make([]float64, len(b))
	v.binarise(ba, a)
	v.binarise(bb, b)
	phi, err := mathx.Pearson(ba, bb)
	if err != nil {
		t.Fatal(err)
	}
	if phi < 0.99 {
		t.Errorf("binary sequences should be identical (phi=%v)", phi)
	}
	cont, err := mathx.Pearson(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cont > 0.999 && phi > 0.999 {
		// Continuous correlation is also 1 here (scaled copies), so
		// use variance: the binary view erases the 60-point offset.
		if mathx.Std(ba) != mathx.Std(bb) {
			t.Error("expected identical binary statistics")
		}
	}
}

func TestCompareAssignmentsNoChanges(t *testing.T) {
	spec := ntcSpec()
	vms := flatVMs(24, 50, 10, 6)
	a, err := NewFFD().Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	stats := new(MigrationMatcher).Compare(a, a, nil)
	if stats.Migrations != 0 || stats.Stayed != 24 {
		t.Errorf("self-compare = %+v, want 0 migrations / 24 stays", stats)
	}
	if stats.MigrationRate() != 0 {
		t.Errorf("rate = %v, want 0", stats.MigrationRate())
	}
}

func TestCompareAssignmentsRelabelledServers(t *testing.T) {
	// The same grouping under permuted server indices is zero
	// migrations.
	prev := &Assignment{VMServer: []int{0, 0, 1, 1}}
	next := &Assignment{VMServer: []int{1, 1, 0, 0}}
	stats := new(MigrationMatcher).Compare(prev, next, nil)
	if stats.Migrations != 0 || stats.Stayed != 4 {
		t.Errorf("relabelled compare = %+v, want 0/4", stats)
	}
}

func TestCompareAssignmentsCountsMoves(t *testing.T) {
	prev := &Assignment{VMServer: []int{0, 0, 0, 1, 1, 1}}
	next := &Assignment{VMServer: []int{0, 0, 1, 1, 1, 1}}
	mem := []float64{1e9, 1e9, 2e9, 1e9, 1e9, 1e9}
	stats := new(MigrationMatcher).Compare(prev, next, mem)
	if stats.Migrations != 1 || stats.Stayed != 5 {
		t.Errorf("compare = %+v, want 1 migration / 5 stays", stats)
	}
	if stats.BytesMoved != 2e9 {
		t.Errorf("bytes moved = %v, want 2e9 (VM 2's resident set)", stats.BytesMoved)
	}
}

func TestCompareAssignmentsNilAndMismatch(t *testing.T) {
	a := &Assignment{VMServer: []int{0, 1}}
	if s := new(MigrationMatcher).Compare(nil, a, nil); s.Migrations != 0 || s.Stayed != 0 {
		t.Error("nil prev should yield zero stats")
	}
	b := &Assignment{VMServer: []int{0}}
	if s := new(MigrationMatcher).Compare(a, b, nil); s.Migrations != 0 || s.Stayed != 0 {
		t.Error("mismatched populations should yield zero stats")
	}
}

func TestVermaVsCOATServerCount(t *testing.T) {
	// On envelope-rich inputs the binary baseline should do no better
	// than COAT (usually worse or equal in servers for the same cap).
	spec := ntcSpec()
	vms := antiphaseVMs(30, 20, 95, 15, 12)
	coat, err := NewCOAT(spec).Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	verma, err := NewVerma().Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if verma.ActiveServers() < coat.ActiveServers() {
		t.Errorf("Verma %d servers beats COAT %d on envelope-rich input",
			verma.ActiveServers(), coat.ActiveServers())
	}
}
