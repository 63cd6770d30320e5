package dcsim

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/power"
)

// TestStepSize1WindowsConcatenate extends TestWindowedRunsConcatenate
// to the degenerate window the live service ticks at: under the
// paper-faithful transition model, a full run equals the concatenation
// of single-slot windows, each seeded with the previous slot's closing
// active-server count. This is the property that lets a daemon window
// dcsim over one-slot epochs and still report batch-exact series.
func TestStepSize1WindowsConcatenate(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)

	full, err := replay(testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps))
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Slots) != 48 {
		t.Fatalf("full run has %d slots, want 48", len(full.Slots))
	}

	initial := 0
	for s := range full.Slots {
		cfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)
		cfg.StartSlot, cfg.NumSlots = s, 1
		cfg.InitialActiveServers = initial
		res, err := replay(cfg)
		if err != nil {
			t.Fatalf("window [%d,+1): %v", s, err)
		}
		if len(res.Slots) != 1 {
			t.Fatalf("window [%d,+1) produced %d slots", s, len(res.Slots))
		}
		if res.Slots[0] != full.Slots[s] {
			t.Fatalf("slot %d differs: full %+v, step-1 window %+v", s, full.Slots[s], res.Slots[0])
		}
		initial = res.Slots[0].ActiveServers
	}
}

// TestStepperMatchesRun pins the exported incremental hook against the
// batch entry point under a non-zero transition model — the case where
// re-windowing per slot would NOT be exact (window boundaries skip the
// slot-to-slot migration diff). The Stepper carries its state across
// steps, so migrations and transition energy carry exactly as in a
// batch run.
func TestStepperMatchesRun(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)

	cfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)
	cfg.Transitions = DefaultTransitions()
	batch, err := replay(cfg)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Slots() != len(batch.Slots) {
		t.Fatalf("stepper spans %d slots, batch ran %d", st.Slots(), len(batch.Slots))
	}
	var stepped []SlotResult
	for i := 0; !st.Done(); i++ {
		slot, err := st.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if slot != batch.Slots[i] {
			t.Fatalf("step %d differs: batch %+v, stepped %+v", i, batch.Slots[i], slot)
		}
		stepped = append(stepped, slot)
	}
	if _, err := st.Step(); err == nil {
		t.Fatal("stepping past the window succeeded")
	}
	fin := fold(stepped)
	if fin.TotalEnergy != batch.TotalEnergy || fin.TotalViol != batch.TotalViol ||
		fin.TotalMigrations != batch.TotalMigrations ||
		fin.TotalTransitionEnergy != batch.TotalTransitionEnergy ||
		fin.MeanActive != batch.MeanActive || fin.PeakActive != batch.PeakActive {
		t.Fatalf("aggregates differ:\nbatch  %+v\nstepped %+v", batch, fin)
	}
}
