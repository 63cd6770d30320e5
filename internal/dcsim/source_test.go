package dcsim

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/alloc"
	"repro/internal/forecast"
	"repro/internal/power"
	"repro/internal/trace"
)

// observeSlot feeds slot s of tr's evaluation period (historyDays 7)
// into the feed — the "live" samples are the reference trace's own.
func observeSlot(t *testing.T, f *LiveFeed, tr *trace.Trace, s int) {
	t.Helper()
	abs := 7*trace.SamplesPerDay + s*trace.SamplesPerSlot
	cpu := make([][]float64, len(tr.VMs))
	mem := make([][]float64, len(tr.VMs))
	for v, vm := range tr.VMs {
		cpu[v] = vm.CPU[abs : abs+trace.SamplesPerSlot]
		mem[v] = vm.Mem[abs : abs+trace.SamplesPerSlot]
	}
	if err := f.Observe(s, cpu, mem); err != nil {
		t.Fatalf("observe slot %d: %v", s, err)
	}
}

// TestLiveFeedMatchesBatch is the ingestion acceptance pin: a stepper
// consuming a LiveFeed that is fed the reference trace's evaluation
// samples slot by slot produces per-slot results bit-exact with a
// whole replay of that trace, and the source gate refuses exactly the
// slots that have not been observed yet.
func TestLiveFeedMatchesBatch(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)
	batch, err := replay(testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps))
	if err != nil {
		t.Fatal(err)
	}

	feed, err := NewLiveFeed(tr, nil, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)
	cfg.Trace = feed.Trace()
	cfg.Predictions = feed.Predictions()
	cfg.Source = feed
	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Slots() != feed.Slots() {
		t.Fatalf("stepper spans %d slots, feed %d", st.Slots(), feed.Slots())
	}

	var live []SlotResult
	for s := 0; s < st.Slots(); s++ {
		// Gated: the slot is not observed yet, and the refusal must
		// not poison the stepper.
		if _, err := st.Step(); !errors.Is(err, ErrAwaitingSamples) {
			t.Fatalf("slot %d: stepping unobserved slot: err = %v, want ErrAwaitingSamples", s, err)
		}
		observeSlot(t, feed, tr, s)
		slot, err := st.Step()
		if err != nil {
			t.Fatalf("slot %d after observe: %v", s, err)
		}
		if slot != batch.Slots[s] {
			t.Fatalf("slot %d differs:\nbatch %+v\nlive  %+v", s, batch.Slots[s], slot)
		}
		live = append(live, slot)
	}
	if !st.Done() {
		t.Fatal("stepper not done after ingesting every slot")
	}
	fin := fold(live)
	if fin.TotalEnergy != batch.TotalEnergy || fin.TotalViol != batch.TotalViol {
		t.Fatalf("aggregates differ:\nbatch %+v\nlive  %+v", batch, fin)
	}
}

// TestLiveFeedPredictorMatchesBatch pins the incremental rolling-day
// prediction bookkeeping against batch Predict: after every slot of
// the horizon is observed, the feed's prediction rows are bit-exact
// with the set Predict builds over the fully ingested trace — for a
// real predictor whose day-1 window includes observed samples.
func TestLiveFeedPredictorMatchesBatch(t *testing.T) {
	tr := testTrace(t, 8)
	pred := func() forecast.Predictor { return &forecast.ARIMA{Cfg: forecast.DefaultConfig()} }

	batch, err := Predict(tr, pred(), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	feed, err := NewLiveFeed(tr, pred(), 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := feed.Predictions().Predictor, batch.Predictor; got != want {
		t.Fatalf("feed predictor label %q, want %q", got, want)
	}
	for s := 0; s < feed.Slots(); s++ {
		observeSlot(t, feed, tr, s)
	}
	if !reflect.DeepEqual(feed.Predictions().CPU, batch.CPU) {
		t.Fatal("incremental CPU predictions differ from batch Predict")
	}
	if !reflect.DeepEqual(feed.Predictions().Mem, batch.Mem) {
		t.Fatal("incremental memory predictions differ from batch Predict")
	}
}

// TestLiveFeedValidation mirrors the CSV ingester's rejection surface:
// out-of-order slots, population mismatches, short rows and
// out-of-range values are refused without ingesting anything.
func TestLiveFeedValidation(t *testing.T) {
	tr := testTrace(t, 4)
	feed, err := NewLiveFeed(tr, nil, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	row := func(v float64) []float64 {
		r := make([]float64, trace.SamplesPerSlot)
		for i := range r {
			r[i] = v
		}
		return r
	}
	good := func() (cpu, mem [][]float64) {
		for v := 0; v < 4; v++ {
			cpu = append(cpu, row(10))
			mem = append(mem, row(20))
		}
		return cpu, mem
	}

	cpu, mem := good()
	if err := feed.Observe(1, cpu, mem); !errors.Is(err, ErrObserveOrder) {
		t.Fatalf("out-of-order observe: err = %v, want ErrObserveOrder", err)
	}
	if err := feed.Observe(48, cpu, mem); err == nil {
		t.Fatal("observe beyond the horizon accepted")
	}
	if err := feed.Observe(0, cpu[:3], mem); err == nil {
		t.Fatal("observe with a missing VM accepted")
	}
	shortCPU, shortMem := good()
	shortCPU[2] = shortCPU[2][:5]
	if err := feed.Observe(0, shortCPU, shortMem); err == nil {
		t.Fatal("observe with a short sample row accepted")
	}
	badCPU, badMem := good()
	badCPU[1][3] = 101
	if err := feed.Observe(0, badCPU, badMem); err == nil {
		t.Fatal("observe with an out-of-range cpu sample accepted")
	}
	if feed.Ingested() != 0 {
		t.Fatalf("rejected observes ingested %d slots", feed.Ingested())
	}
	if feed.SlotReady(0) {
		t.Fatal("slot 0 ready before any successful observe")
	}
	cpu, mem = good()
	if err := feed.Observe(0, cpu, mem); err != nil {
		t.Fatalf("valid observe rejected: %v", err)
	}
	if feed.Ingested() != 1 || !feed.SlotReady(0) || feed.SlotReady(1) {
		t.Fatalf("after one observe: ingested %d, ready(0)=%v ready(1)=%v",
			feed.Ingested(), feed.SlotReady(0), feed.SlotReady(1))
	}
}

// TestCloneContinuesBitExact forks a mid-run stepper under the
// non-zero transition model — the case where carried state (prevAsg,
// accumulated slots) matters — and checks clone and original continue
// identically and independently, with a fresh policy instance on the
// clone.
func TestCloneContinuesBitExact(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)
	cfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)
	cfg.Transitions = DefaultTransitions()

	// lockstep steps the original and the clone in turn; in
	// original-ahead the original finishes before the clone's first
	// step, refilling both of its Assignment buffers first, so a clone
	// that shared either would price its first transition from the
	// wrong plan.
	for _, ahead := range []bool{false, true} {
		name := map[bool]string{false: "lockstep", true: "original-ahead"}[ahead]
		t.Run(name, func(t *testing.T) {
			st, err := NewStepper(cfg)
			if err != nil {
				t.Fatal(err)
			}
			const fork = 20
			var pre []SlotResult
			for i := 0; i < fork; i++ {
				slot, err := st.Step()
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				pre = append(pre, slot)
			}
			orig, forked := slices.Clone(pre), slices.Clone(pre)
			clone := st.Clone(&alloc.EPACT{Model: power.NTCServer()})
			cloneStep := func(want SlotResult) {
				t.Helper()
				got, err := clone.Step()
				if err != nil {
					t.Fatal(err)
				}
				forked = append(forked, got)
				if got != want {
					t.Fatalf("clone diverged at slot %d:\noriginal %+v\nclone    %+v", want.Slot, want, got)
				}
			}
			var ran []SlotResult
			for !st.Done() {
				want, err := st.Step()
				if err != nil {
					t.Fatal(err)
				}
				orig = append(orig, want)
				if ahead {
					ran = append(ran, want)
				} else {
					cloneStep(want)
				}
			}
			for _, want := range ran {
				cloneStep(want)
			}
			if !clone.Done() {
				t.Fatal("clone not done when original is")
			}
			a, b := fold(orig), fold(forked)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("finished results differ:\noriginal %+v\nclone    %+v", a, b)
			}
		})
	}
}

// TestCloneMatchesFreshWindow pins the fork acceptance contract:
// under the paper-faithful (zero) transition model, a clone taken at
// slot k and driven to exhaustion is bit-exact with a fresh windowed
// run over [k, end) seeded with the carried active-server count.
func TestCloneMatchesFreshWindow(t *testing.T) {
	tr := testTrace(t, 40)
	ps := oracle(t, tr)
	cfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)

	st, err := NewStepper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const fork = 17
	var carried int
	for i := 0; i < fork; i++ {
		slot, err := st.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		carried = slot.ActiveServers
	}
	clone := st.Clone(&alloc.EPACT{Model: power.NTCServer()})

	wcfg := testConfig(t, tr, &alloc.EPACT{Model: power.NTCServer()}, ps)
	wcfg.StartSlot = fork
	wcfg.InitialActiveServers = carried
	fresh, err := replay(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !clone.Done(); i++ {
		got, err := clone.Step()
		if err != nil {
			t.Fatal(err)
		}
		if got != fresh.Slots[i] {
			t.Fatalf("fork slot %d differs:\nfresh window %+v\nclone        %+v", got.Slot, fresh.Slots[i], got)
		}
	}
}

// Slots returns the evaluation horizon in slots.
func (f *LiveFeed) Slots() int { return f.evalSlots }
