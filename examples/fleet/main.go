// Fleet runs the multi-datacenter consolidation study: the same week
// of VMs dispatched across a heterogeneous fleet under every cross-DC
// dispatch policy, with EPACT and COAT packing each datacenter. It
// answers the paper's question one level up — consolidate the *fleet*
// onto its most energy-proportional site, or spread?
//
// By default it uses the builtin "triad" fleet (an NTC core site, a
// heavier-static metro site, a conventional low-latency edge site) at
// a reduced scale. Pass -full for the paper-scale week, -fleet to
// swap in your own fleet file, and -rebalance to compare static
// dispatch against the epoch rebalancer, e.g.
//
//	go run ./examples/fleet -fleet myfleet.json
//	go run ./examples/fleet -rebalance epoch:4@greedy-proportional
//
// (see docs/TOPOLOGY.md for the fleet-file and rebalance formats).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	ntcdc "repro"
)

func main() {
	full := flag.Bool("full", false, "paper-scale run (600 VMs, 7 days)")
	fleet := flag.String("fleet", "triad", `fleet ref: a builtin name or a fleet.json path`)
	rebalance := flag.String("rebalance", "", `also run each dispatcher with this rebalance spec, e.g. epoch:4@greedy-proportional`)
	flag.Parse()

	cfg := ntcdc.DefaultFleetWeekConfig()
	cfg.Fleet = *fleet
	if *rebalance != "" {
		if _, err := ntcdc.ParseFleetRebalance(*rebalance); err != nil {
			log.Fatal(err)
		}
		cfg.Rebalances = []string{"off", *rebalance}
	}
	if !*full {
		cfg.DC.VMs = 150
		cfg.DC.EvalDays = 2
	}

	fmt.Printf("dispatching %d VMs across fleet %q over %d days (%s)...\n\n",
		cfg.DC.VMs, cfg.Fleet, cfg.DC.EvalDays, predictorName(cfg.DC.UseARIMA))
	rows, err := ntcdc.RunFleetWeek(cfg)
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dispatcher\trebalance\tpolicy\tenergy (MJ)\tEP score\tviolations\twan viol\tmoves\tmean active\tper-DC energy (MJ)")
	for _, r := range rows {
		perDC := ""
		for i, dc := range r.PerDC {
			if i > 0 {
				perDC += "  "
			}
			perDC += fmt.Sprintf("%s=%.1f", dc.Name, dc.EnergyMJ)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f\t%.3f\t%d\t%.1f\t%d\t%.1f\t%s\n",
			r.Dispatcher, r.Scenario.Rebalance, r.Scenario.Policy, r.TotalEnergyMJ, r.EPScore, r.Violations,
			r.LatencyWeightedViol, r.CrossDCMigrations, r.MeanActive, perDC)
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}

	// The headline comparison: best fleet consolidation vs best spread.
	best := rows[0]
	for _, r := range rows[1:] {
		if r.TotalEnergyMJ < best.TotalEnergyMJ {
			best = r
		}
	}
	fmt.Printf("\ncheapest combination: %s dispatch (rebalance %s) + %s packing (%.1f MJ)\n",
		best.Dispatcher, best.Scenario.Rebalance, best.Scenario.Policy, best.TotalEnergyMJ)
}

func predictorName(arima bool) string {
	if arima {
		return "ARIMA predictions"
	}
	return "oracle predictions"
}
