package ntcdc

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper (Figs. 4-6 come from one simulation, so BenchmarkWeek
// covers all three). The ablation benches live beside the ablations,
// in internal/experiments/ablations_test.go.
//
// The data-center benches (Figs 4-7) run at a reduced scale (150 VMs,
// 1-2 evaluated days) so `go test -bench=.` completes quickly;
// cmd/ntc-repro runs the full paper scale.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/experiments"
	"repro/internal/sweep"
	"repro/internal/trace"
)

func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.TableI(); len(r.Rows) != 3 {
			b.Fatal("bad Table I")
		}
	}
}

func BenchmarkFig1a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDC is the reduced-scale configuration for the week benches.
func benchDC(evalDays int, arima bool) experiments.DCConfig {
	cfg := experiments.DefaultDCConfig()
	cfg.VMs = 150
	cfg.EvalDays = evalDays
	cfg.UseARIMA = arima
	return cfg
}

// BenchmarkWeek runs the Figs. 4-6 experiment: one simulation
// produces all three figures' series.
func BenchmarkWeek(b *testing.B) {
	cfg := benchDC(1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		week, err := experiments.Fig4to6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(week.Policies) != 3 {
			b.Fatal("missing policies")
		}
	}
}

func BenchmarkFig7(b *testing.B) {
	cfg := benchDC(1, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 5 {
			b.Fatal("missing rows")
		}
	}
}

// oneSlotDemands builds one slot (12 samples) of VM demands from a
// freshly generated trace.
func oneSlotDemands(b *testing.B, vms int) ([]alloc.VMDemand, alloc.ServerSpec) {
	b.Helper()
	cfg := DefaultTraceConfig(7)
	cfg.VMs = vms
	cfg.Days = 1
	tr, err := trace.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	demands := make([]alloc.VMDemand, vms)
	for v := 0; v < vms; v++ {
		demands[v] = alloc.VMDemand{
			ID:  v,
			CPU: tr.VMs[v].CPU[:trace.SamplesPerSlot],
			Mem: tr.VMs[v].Mem[:trace.SamplesPerSlot],
		}
	}
	m := NTCServerPower()
	spec := alloc.ServerSpec{
		Cores:         m.Cores,
		MemContainers: m.DRAM.Capacity.GB(),
		FMax:          m.FMax,
		FMin:          m.FMin,
	}
	return demands, spec
}

// benchAllocate measures one slot allocation at paper scale (600 VMs)
// into a reused Assignment: the per-call cost of a policy in the slot
// loop, where the allocator scratch pools and the caller-owned
// Assignment of docs/ARCHITECTURE.md ("The hot loop") leave nothing to
// allocate. Calls outside the timer grow the Assignment first, and
// fill the scratch pools on every P at once: a pool keeps its items
// per P, so a benchmark goroutine that the scheduler moves to a P
// whose pool is empty would otherwise count that P's first scratch.
// The trace behind the demands is collected before that, so no
// collection, which empties the pools, falls inside the timed loop.
func benchAllocate(b *testing.B, policy func(alloc.ServerSpec) alloc.Filler) {
	demands, spec := oneSlotDemands(b, 600)
	pol := policy(spec)
	dst := new(alloc.Assignment)
	runtime.GC()
	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = pol.AllocateInto(new(alloc.Assignment), demands, spec)
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, pol.AllocateInto(dst, demands, spec))...); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pol.AllocateInto(dst, demands, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEPACTAllocate is the paper's allocator.
func BenchmarkEPACTAllocate(b *testing.B) {
	benchAllocate(b, func(alloc.ServerSpec) alloc.Filler { return &alloc.EPACT{Model: NTCServerPower()} })
}

// BenchmarkCOATAllocate is the consolidation baseline's counterpart.
func BenchmarkCOATAllocate(b *testing.B) {
	benchAllocate(b, func(spec alloc.ServerSpec) alloc.Filler { return alloc.NewCOAT(spec) })
}

// BenchmarkCOATOPTAllocate is COAT with the optimal fixed cap.
func BenchmarkCOATOPTAllocate(b *testing.B) {
	benchAllocate(b, func(spec alloc.ServerSpec) alloc.Filler {
		return alloc.NewCOATOPT(spec, NTCServerPower().OptimalFrequency())
	})
}

// BenchmarkFFDAllocate is plain first-fit-decreasing.
func BenchmarkFFDAllocate(b *testing.B) {
	benchAllocate(b, func(alloc.ServerSpec) alloc.Filler { return alloc.NewFFD() })
}

// BenchmarkLoadBalanceAllocate is load balancing over a pool sized for
// 50% mean CPU load.
func BenchmarkLoadBalanceAllocate(b *testing.B) {
	benchAllocate(b, func(alloc.ServerSpec) alloc.Filler { return &alloc.LoadBalance{} })
}

// BenchmarkVermaAllocate is the binary-quantised consolidation
// baseline.
func BenchmarkVermaAllocate(b *testing.B) {
	benchAllocate(b, func(alloc.ServerSpec) alloc.Filler { return alloc.NewVerma() })
}

// BenchmarkDCSimRun measures one bare simulator run (the unit of work
// every sweep scenario pays after the shared inputs are loaded).
func BenchmarkDCSimRun(b *testing.B) {
	tr, err := trace.Generate(sweep.DCTraceConfig(2018, 150, 8))
	if err != nil {
		b.Fatal(err)
	}
	ps, err := dcsim.Predict(tr, nil, 7, 1)
	if err != nil {
		b.Fatal(err)
	}
	model := NTCServerPower()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dcsim.Run(dcsim.Config{
			Trace:       tr,
			Predictions: ps,
			HistoryDays: 7,
			EvalDays:    1,
			Policy:      &alloc.EPACT{Model: model},
			Server:      model,
			Platform:    NTCPlatform(),
			MaxServers:  600,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Slots) != 24 {
			b.Fatal("bad run")
		}
	}
}

// paperTrace is the paper-scale input: 600 VMs over 7 history + 7
// evaluated days, the trace every ARIMA scenario shares.
func paperTrace() trace.Config { return sweep.DCTraceConfig(2018, 600, 14) }

// BenchmarkTraceGenerate measures the synthetic trace build, the
// first part of every scenario's shared input: a serial pass over the
// generator's stream that records each VM's start state, plus the
// lane kernel on every core, which draws four VMs' samples side by
// side.
func BenchmarkTraceGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr, err := trace.Generate(paperTrace())
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.VMs) != 600 {
			b.Fatal("bad trace")
		}
	}
}

// BenchmarkPredictARIMA measures the day-ahead ARIMA prediction set
// (600 VMs x 7 days x CPU and memory fits), the input every
// ARIMA-predicted scenario waits on.
func BenchmarkPredictARIMA(b *testing.B) {
	tr, err := trace.Generate(paperTrace())
	if err != nil {
		b.Fatal(err)
	}
	pred := NewARIMA()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps, err := dcsim.Predict(tr, pred, 7, 7)
		if err != nil {
			b.Fatal(err)
		}
		if len(ps.CPU) != 600 {
			b.Fatal("bad prediction set")
		}
	}
}

// benchSweepGrid is a 24-scenario grid (6 policies × 2 transition
// models × 2 pool bounds) over one shared 100-VM trace.
func benchSweepGrid() sweep.Grid {
	return sweep.Grid{
		Policies:    sweep.PolicyNames(),
		VMs:         []int{100},
		MaxServers:  []int{100, 50},
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Transitions: []sweep.TransitionSpec{{Name: "none"}, {Name: "default"}},
	}
}

// BenchmarkSweepGrid measures the sweep engine serial vs parallel on
// the same grid; on multicore hardware the parallel variant should
// approach a worker-count speedup (scenarios are independent), and
// both produce byte-identical results.
func BenchmarkSweepGrid(b *testing.B) {
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 8},
	} {
		b.Run(fmt.Sprintf("%s-workers=%d", bc.name, bc.workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(benchSweepGrid(), sweep.Options{Workers: bc.workers})
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Failed(); err != nil {
					b.Fatal(err)
				}
				if len(res.Runs) != 24 {
					b.Fatal("bad sweep")
				}
			}
		})
	}
}

// BenchmarkFleetRebalance measures the epoch rebalancer: one triad
// scenario whose dispatch re-plans every 4 slots with migration
// pricing and per-slot series stitching — the rebalance axis's unit
// of work next to BenchmarkDCSimRun's static cost.
func BenchmarkFleetRebalance(b *testing.B) {
	g := sweep.Grid{
		Policies:   []string{"EPACT"},
		VMs:        []int{100},
		MaxServers: []int{100},
		EvalDays:   1,
		Seeds:      []int64{2018},
		Predictors: []string{"oracle"},
		Topologies: []string{"uniform@triad"},
		Rebalances: []string{"epoch:4@greedy-proportional"},
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(g, sweep.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			b.Fatal(err)
		}
		if res.Runs[0].CrossDCMigrations == 0 {
			b.Fatal("rebalancer moved nothing")
		}
	}
}

// BenchmarkCarbonFleetWeek measures the carbon layer's unit of work:
// a follow-the-sun scenario on the triad-carbon fleet — carbon-greedy
// dispatch re-ranked at every 6-slot epoch's hour of day, per-slot
// grid-intensity pricing and embodied accrual — next to
// BenchmarkFleetRebalance's energy-only rebalancing cost.
func BenchmarkCarbonFleetWeek(b *testing.B) {
	g := sweep.Grid{
		Policies:   []string{"EPACT"},
		VMs:        []int{100},
		MaxServers: []int{100},
		EvalDays:   2,
		Seeds:      []int64{2018},
		Predictors: []string{"oracle"},
		Topologies: []string{"carbon-greedy@triad-carbon"},
		Rebalances: []string{"epoch:6@carbon-greedy"},
	}
	for i := 0; i < b.N; i++ {
		res, err := sweep.Run(g, sweep.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			b.Fatal(err)
		}
		if res.Runs[0].OperationalGCO2 <= 0 || res.Runs[0].EmbodiedGCO2 <= 0 {
			b.Fatal("carbon accounting inert")
		}
	}
}

// BenchmarkDistLocalSweep runs the same 24-scenario grid through the
// distributed coordinator/worker protocol (in-process transport, 4
// workers) — the overhead of leasing, JSON rows and deterministic
// merge relative to BenchmarkSweepGrid's plain pool.
func BenchmarkDistLocalSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _, err := RunDistributedSweep(context.Background(), benchSweepGrid(), 4, DistOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Failed(); err != nil {
			b.Fatal(err)
		}
		if len(res.Runs) != 24 {
			b.Fatal("bad sweep")
		}
	}
}

// benchJournalGrid is 2,000 tiny rows: FFD and COAT over 1,000 static
// power values, 8 VMs, 1+1 days. A row costs well under a millisecond,
// so the coordinator's per-row work — leases, completes and the
// checkpoint journal — is a large share of the run.
func benchJournalGrid() sweep.Grid {
	static := make([]float64, 1000)
	for i := range static {
		static[i] = 10 + float64(i)/20
	}
	return sweep.Grid{
		Policies:     []string{"FFD", "COAT"},
		VMs:          []int{8},
		HistoryDays:  1,
		EvalDays:     1,
		Seeds:        []int64{2018},
		Predictors:   []string{"oracle"},
		StaticPowerW: static,
	}
}

// BenchmarkDistCheckpointedSweep runs benchJournalGrid through the
// in-process coordinator with 2 workers, without and with a checkpoint
// journal: the journal's cost is the difference between the two.
func BenchmarkDistCheckpointedSweep(b *testing.B) {
	g := benchJournalGrid()
	for _, journal := range []bool{false, true} {
		b.Run(fmt.Sprintf("journal=%v", journal), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var opt DistOptions
				if journal {
					opt.CheckpointDir = b.TempDir()
				}
				res, _, err := RunDistributedSweep(context.Background(), g, 2, opt)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.Failed(); err != nil {
					b.Fatal(err)
				}
				if len(res.Runs) != 2000 {
					b.Fatal("bad sweep")
				}
			}
		})
	}
}
