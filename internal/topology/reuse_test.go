package topology

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
)

// reuseConfig is a rebalanced triad over vms VMs (one history day, two
// evaluated days) that re-dispatches every three slots by observed
// load, with transition pricing, planned by FFD, whose calls allocate
// nothing once their pooled scratch and the stepper's Assignments have
// grown.
func reuseConfig(t *testing.T, vms int) Config {
	t.Helper()
	tr := testTrace(t, 2018, vms, 3)
	ps, err := dcsim.Predict(tr, nil, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ParseSpec("uniform@triad")
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Fleet:       fleet,
		Trace:       tr,
		Predictions: ps,
		HistoryDays: 1,
		EvalDays:    2,
		MaxServers:  vms,
		NewPolicy:   func(power.Model) (alloc.Policy, error) { return alloc.NewFFD(), nil },
		Transitions: dcsim.DefaultTransitions(),
		Rebalance:   RebalanceSpec{EverySlots: 3, Dispatcher: "follow-the-load"},
	}
}

// boundaryBytes steps a reuseConfig fleet of vms VMs to the end and
// returns the fewest bytes a boundary step allocated once the first
// epochs have grown the buffers. A boundary step closes an epoch, opens
// the next and steps its first slot in every DC.
func boundaryBytes(t *testing.T, vms int) uint64 {
	st, err := NewStepper(reuseConfig(t, vms))
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	least := uint64(1 << 62)
	for s := 0; !st.Done(); s++ {
		measure := s >= 9 && s%3 == 0
		if measure {
			runtime.ReadMemStats(&before)
		}
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
		if measure {
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
	}
	return least
}

// TestEpochReuseBoundaryBytesFlat pins that a warmed fleet stepper's
// epoch boundary allocates per datacenter, not per VM: the dispatch
// lists, the VM-to-DC map, the per-DC trace and prediction views and
// the DVFS tables are reused, so a boundary at 1,200 VMs allocates
// within 10% of one at 300. The race detector drops pooled step
// buffers at random, so byte counts mean nothing under it.
func TestEpochReuseBoundaryBytesFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	small, large := boundaryBytes(t, 300), boundaryBytes(t, 1200)
	t.Logf("bytes per warm boundary: %d at 300 VMs, %d at 1,200", small, large)
	if float64(large) > 1.1*float64(small) {
		t.Errorf("a warm boundary allocates %d bytes at 1,200 VMs, %d at 300: more than 10%% apart", large, small)
	}
}

// TestEpochReuseCloneForkedMidEpoch forks a rebalanced fleet mid-epoch
// and steps the ORIGINAL across the next boundary first, so the
// original opens an epoch while the clone's DC steppers still read the
// fork epoch's views; then it steps the clone to the end. Both must
// finish DeepEqual to an unforked run: whichever side opens the next
// epoch must not overwrite the buffers the other still reads.
// TestCloneContinuesBitExact steps the two in lockstep, which cannot
// catch that.
func TestEpochReuseCloneForkedMidEpoch(t *testing.T) {
	cfg := reuseConfig(t, 96)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const fork = 13 // mid-epoch [12, 15)
	for range fork {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	clone, err := st.Clone()
	if err != nil {
		t.Fatal(err)
	}
	forkAsg := make([][]int, len(st.asg))
	for i, vms := range st.asg {
		forkAsg[i] = slices.Clone(vms)
	}
	for st.next <= 15 {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// The test means something only if the next epoch re-dispatched a
	// DC that hosts VMs in both epochs.
	moved := false
	for i, vms := range st.asg {
		moved = moved || len(vms) > 0 && len(forkAsg[i]) > 0 && !slices.Equal(vms, forkAsg[i])
	}
	if !moved {
		t.Fatal("the boundary after the fork re-dispatched no hosting DC; pick a fleet whose dispatch moves VMs")
	}
	for _, sp := range []*Stepper{clone, st} {
		for !sp.Done() {
			if _, err := sp.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for name, sp := range map[string]*Stepper{"clone": clone, "original": st} {
		got, err := sp.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s forked at slot %d finishes differently from an unforked run", name, fork)
		}
	}
}
