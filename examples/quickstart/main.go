// Quickstart: build the NTC server model, sweep its DVFS range, and
// find the energy-proportionality optimum the paper's whole argument
// rests on (≈1.9 GHz, not F_max).
package main

import (
	"fmt"

	ntcdc "repro"
)

func main() {
	srv := ntcdc.NTCServerPower()
	fmt.Printf("server: %s\n", srv.Name)
	fmt.Printf("technology: %s\n\n", srv.Tech)

	fmt.Println("f (GHz)   P cpu-bound (W)   P/f (W/GHz)")
	for _, f := range srv.DVFSGrid() {
		if int(f.MHz())%500 != 0 && f != srv.FMax {
			continue // print a coarse grid
		}
		fmt.Printf("%5.1f     %8.1f          %6.1f\n",
			f.GHz(), srv.CPUBoundPower(f).W(), srv.PowerPerGHz(f))
	}

	fOpt := srv.OptimalFrequency()
	fmt.Printf("\nmost energy-proportional frequency: %v\n", fOpt)
	fmt.Printf("power there: %v (vs %v at FMax)\n",
		srv.CPUBoundPower(fOpt), srv.CPUBoundPower(srv.FMax))

	// The same sweep on a conventional server shows why consolidation
	// at FMax used to be the right call.
	e5 := ntcdc.ConventionalServerPower()
	fmt.Printf("\nconventional %s optimum: %v (= FMax)\n", e5.Name, e5.OptimalFrequency())
}
