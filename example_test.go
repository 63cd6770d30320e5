package ntcdc_test

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	ntcdc "repro"
)

// The paper's headline server-level result: the NTC server's most
// energy-proportional frequency is ≈1.9 GHz, not F_max.
func ExampleServerPowerModel_optimalFrequency() {
	srv := ntcdc.NTCServerPower()
	fmt.Println(srv.OptimalFrequency())
	// Output: 1.9GHz
}

// The conventional comparison server is most efficient flat out,
// which is why consolidation used to be the right policy.
func ExampleConventionalServerPower() {
	srv := ntcdc.ConventionalServerPower()
	fmt.Println(srv.OptimalFrequency() == srv.FMax)
	// Output: true
}

// QoS floors per workload class on the NTC server (Fig. 2).
func ExampleMinQoSFrequency() {
	ntc := ntcdc.NTCPlatform()
	for _, c := range []ntcdc.WorkloadClass{ntcdc.LowMem, ntcdc.MidMem, ntcdc.HighMem} {
		f, err := ntcdc.MinQoSFrequency(ntc, c)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s: %v\n", c, f)
	}
	// Output:
	// low-mem: 1.2GHz
	// mid-mem: 1.8GHz
	// high-mem: 1.8GHz
}

// Table I's NTC column, computed from the calibrated platform model.
func ExamplePlatform_execTime() {
	ntc := ntcdc.NTCPlatform()
	for _, c := range []ntcdc.WorkloadClass{ntcdc.LowMem, ntcdc.MidMem, ntcdc.HighMem} {
		fmt.Printf("%s: %.3f s\n", c, ntc.ExecTime(c, ntcdc.GHz(2)))
	}
	// Output:
	// low-mem: 0.582 s
	// mid-mem: 2.926 s
	// high-mem: 6.765 s
}

// A fleet topology composes heterogeneous datacenters behind a
// cross-DC dispatch policy; the builtin "triad" mixes an NTC core
// site, a heavier-static metro site and a conventional edge site.
// Relative datacenters (Servers 0) are sized from the scenario's
// fleet-wide pool at run time — Resolve(600) splits 600 servers by
// share.
func ExampleParseTopology() {
	fleet, err := ntcdc.ParseTopology("greedy-proportional@triad")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s via %s dispatch:\n", fleet.Name, fleet.Dispatcher)
	for _, dc := range fleet.Resolve(600).DCs {
		fmt.Printf("  %s: %d servers, PUE %.2f, %.0f ms\n",
			dc.Name, dc.Servers, dc.PUE, dc.LatencyMs)
	}
	// Output:
	// triad via greedy-proportional dispatch:
	//   core: 300 servers, PUE 1.12, 40 ms
	//   metro: 180 servers, PUE 1.25, 15 ms
	//   edge: 120 servers, PUE 1.50, 5 ms
}

// A cross-DC rebalance spec turns static dispatch into an epoch
// control loop: every N slots the fleet re-dispatches over observed
// load and pays for every VM it moves.
func ExampleParseFleetRebalance() {
	reb, err := ntcdc.ParseFleetRebalance("epoch:4@greedy-proportional")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("every %d slots via %s (canonical %q)\n", reb.EverySlots, reb.Dispatcher, reb.String())
	// Output:
	// every 4 slots via greedy-proportional (canonical "epoch:4@greedy-proportional")
}

// Body bias is the FD-SOI-specific knob: reverse bias slashes leakage
// for parked servers.
func ExampleWithBodyBias() {
	tech := ntcdc.FDSOI28()
	rbb, err := ntcdc.WithBodyBias(tech, -1.0)
	if err != nil {
		fmt.Println(err)
		return
	}
	f := ntcdc.GHz(1.0)
	fmt.Println(rbb.LeakageScale(f) < 0.5*tech.LeakageScale(f))
	// Output: true
}

// A distributed sweep in one process: the coordinator/worker protocol
// over the in-process transport emits exactly what RunSweep does.
func ExampleRunDistributedSweep() {
	grid := ntcdc.SweepGrid{
		Policies:    []string{"EPACT", "COAT"},
		VMs:         []int{20},
		MaxServers:  []int{20},
		HistoryDays: 1,
		EvalDays:    1,
		Predictors:  []string{"oracle"},
	}
	res, stats, err := ntcdc.RunDistributedSweep(context.Background(), grid, 2, ntcdc.DistOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	single, err := ntcdc.RunSweep(grid, ntcdc.SweepOptions{Workers: 1})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("units:", stats.Units)
	fmt.Println("byte-identical to the engine:", res.CSV() == single.CSV())
	// Output:
	// units: 2
	// byte-identical to the engine: true
}

// A distributed sweep across processes: the coordinator serves the
// worker protocol over HTTP and answers from its result store what an
// earlier sweep already ran; workers, usually other processes or
// hosts, lease the remaining scenarios until the grid is done. The
// example has no output check, so it is compiled but not run: it
// listens on a port.
func ExampleNewSweepCoordinator() {
	ctx := context.Background()
	grid := ntcdc.SweepGrid{Policies: []string{"EPACT", "COAT"}, Predictors: []string{"oracle"}}
	store, err := ntcdc.OpenSweepCache("sweep-cache", "rw")
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// Coordinator side.
	c, err := ntcdc.NewSweepCoordinator(grid, ntcdc.DistOptions{Cache: store})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	go http.ListenAndServe("localhost:8700", ntcdc.NewSweepHandler(c))

	// Worker side.
	n, err := ntcdc.RunSweepWorker(ctx, ntcdc.NewSweepWorkerClient("localhost:8700"), ntcdc.SweepWorkerOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := c.Wait(ctx) // the merged rows, in grid order
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(n, "of", len(res.Runs), "scenarios run by this worker")
}

// The live fleet service: replay the default session slot by slot
// and read its gauges — sharded under the session label — from the
// OpenMetrics exposition at any point.
func ExampleNewFleetService() {
	svc, err := ntcdc.NewFleetService(ntcdc.FleetServiceOptions{
		Grid: ntcdc.SweepGrid{
			Policies:    []string{"EPACT"},
			VMs:         []int{24},
			MaxServers:  []int{24},
			HistoryDays: 1,
			EvalDays:    1,
			Predictors:  []string{"oracle"},
		},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for i := 0; i < 3; i++ {
		if err := svc.Tick(); err != nil {
			fmt.Println("error:", err)
			return
		}
	}
	snap := svc.Snapshot()
	fmt.Println("slot:", snap.Slot, "done:", snap.Done)

	var page strings.Builder
	if err := svc.WriteMetrics(&page); err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, line := range strings.Split(page.String(), "\n") {
		if strings.HasPrefix(line, "ntc_slot{") || strings.HasPrefix(line, "ntc_slots{") {
			fmt.Println(line)
		}
	}
	// Output:
	// slot: 3 done: false
	// ntc_slot{session="default"} 3
	// ntc_slots{session="default"} 24
}
