package alloc

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/power"
	"repro/internal/units"
)

// BenchmarkEPACTAllocateCase1 pins the CPU-dominated slot allocation
// (Algorithm 1), the hot path of a simulated week.
func BenchmarkEPACTAllocateCase1(b *testing.B) {
	benchEPACT(b, genVMs(&epactRNG{s: 2018}, 150, 12, 80, 30), 1)
}

// BenchmarkEPACTAllocateCase2 pins the memory-dominated slot
// allocation (Algorithm 2, Eq. 2 merit).
func BenchmarkEPACTAllocateCase2(b *testing.B) {
	benchEPACT(b, genVMs(&epactRNG{s: 2018}, 150, 12, 25, 95), 2)
}

// benchEPACT refills one Assignment with EPACT's allocation of vms per
// iteration. As in the repository's benchAllocate, calls outside the
// timer grow the Assignment and fill epactPool on every P, after a
// collection, so the timed loop measures the steady state.
func benchEPACT(b *testing.B, vms []VMDemand, wantCase int) {
	spec := ServerSpec{Cores: 16, MemContainers: 16, FMax: units.GHz(3.1), FMin: units.GHz(0.1)}
	e := &EPACT{Model: power.NTCServer()}
	a := new(Assignment) // refilled by every call
	runtime.GC()
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = e.AllocateInto(new(Assignment), vms, spec)
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, e.AllocateInto(a, vms, spec))...); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.AllocateInto(a, vms, spec); err != nil {
			b.Fatal(err)
		}
		if a.EPACTCase != wantCase {
			b.Fatalf("expected case %d", wantCase)
		}
	}
}
