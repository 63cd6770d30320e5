// Command ntc-power prints server- and data-center-level power curves
// for the NTC and conventional server models: the P(f) and P(f)/f
// sweeps behind Fig. 1 and the optimal operating points.
//
// Usage:
//
//	ntc-power [-model ntc|e5] [-servers 80] [-util 0.5]
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/power"
)

func main() {
	var (
		model   = flag.String("model", "ntc", "server model: ntc or e5")
		servers = flag.Int("servers", 80, "pool size for the DC sweep")
		util    = flag.Float64("util", 0.5, "data-center utilisation rate (0..1)")
	)
	flag.Parse()

	var m *power.ServerModel
	switch *model {
	case "ntc":
		m = power.NTCServer()
	case "e5":
		m = power.IntelE5_2620()
	default:
		fmt.Fprintf(os.Stderr, "ntc-power: unknown model %q (want ntc or e5)\n", *model)
		os.Exit(2)
	}

	fmt.Printf("%s (%s)\n", m.Name, m.Tech.Name)
	fmt.Printf("optimal frequency (argmin P/f): %v\n\n", m.OptimalFrequency())

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "GHz\tV\tP idle (W)\tP cpu-bound (W)\tP/f (W/GHz)")
	for _, f := range m.DVFSGrid() {
		fmt.Fprintf(tw, "%.1f\t%.2f\t%.1f\t%.1f\t%.1f\n",
			f.GHz(), m.Tech.VoltageAt(f).V(), m.IdlePower(f).W(), m.CPUBoundPower(f).W(), m.PowerPerGHz(f))
	}
	tw.Flush()

	dc := &power.DataCenter{Servers: *servers, Model: m}
	fOpt, pOpt, err := dc.OptimalWorstCaseFrequency(*util)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntc-power:", err)
		os.Exit(1)
	}
	pMax, _, err := dc.WorstCasePower(*util, m.FMax, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntc-power:", err)
		os.Exit(1)
	}
	fmt.Printf("\nDC of %d servers at %.0f%% utilisation:\n", *servers, *util*100)
	fmt.Printf("  optimal: %v at %v\n", pOpt, fOpt)
	fmt.Printf("  consolidation at FMax: %v (%.0f%% more)\n",
		pMax, 100*(pMax.W()/pOpt.W()-1))
}
