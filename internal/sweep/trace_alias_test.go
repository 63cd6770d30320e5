package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"testing"

	"repro/internal/trace"
)

// traceDigest hashes every VM's identity, class and samples.
func traceDigest(tr *trace.Trace) [sha256.Size]byte {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(tr.Interval))
	put(uint64(len(tr.VMs)))
	for _, vm := range tr.VMs {
		put(uint64(vm.ID))
		put(uint64(vm.Class))
		for _, row := range [2][]float64{vm.CPU, vm.Mem} {
			put(uint64(len(row)))
			for _, x := range row {
				put(math.Float64bits(x))
			}
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestOracleGridLeavesTraceIntact: oracle prediction rows view the
// trace they predict, so nothing a grid runs may write through them.
// Every policy, with default transitions, on one DC and on a
// rebalanced uniform triad, runs on two goroutines of one Runner (so
// idle helpers and waiters allocate ahead too); the shared trace
// hashes the same before and after.
func TestOracleGridLeavesTraceIntact(t *testing.T) {
	g := Grid{
		Policies:    PolicyNames(),
		VMs:         []int{48},
		MaxServers:  []int{48},
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Transitions: []TransitionSpec{{Name: "default"}},
		Topologies:  []string{"single", "uniform@triad"},
		Rebalances:  []string{"off", "epoch:4@greedy-proportional"},
	}.WithDefaults()
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := rn.StepperConfig(scens[0])
	if err != nil {
		t.Fatal(err)
	}
	tr, ps := cfg.Trace, cfg.Predictions
	evalStart := g.HistoryDays * trace.SamplesPerDay
	if &ps.CPU[0][0] != &tr.VMs[0].CPU[evalStart] || &ps.Mem[0][0] != &tr.VMs[0].Mem[evalStart] {
		t.Fatal("oracle prediction rows do not view the trace; this test would prove nothing")
	}
	before := traceDigest(tr)

	var wg sync.WaitGroup
	rows := make([]RunResult, len(scens))
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(scens); i += 2 {
				rows[i] = rn.Exec(scens[i])
			}
		}(w)
	}
	wg.Wait()
	for i, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s: %s", scens[i].ID(), r.Err)
		}
		if r.Scenario.Topology == "uniform@triad" && r.Scenario.Rebalance != "off" && r.CrossDCMigrations == 0 {
			t.Errorf("%s: no cross-DC migrations; the rebalanced rows do not re-dispatch", scens[i].ID())
		}
	}
	if again, err := rn.StepperConfig(scens[0]); err != nil || again.Trace != tr {
		t.Fatalf("the Runner rebuilt the trace (err %v); the grid did not run on the hashed one", err)
	}
	if after := traceDigest(tr); after != before {
		t.Error("running the oracle grid changed the trace it shares with its predictions")
	}
}
