// Package experiments regenerates every table and figure of the
// paper's evaluation section from the models in this repository. Each
// runner returns a typed result with the same rows/series the paper
// reports, plus Render methods for human-readable and CSV output.
//
// Experiment index (the figure adapters of docs/ARCHITECTURE.md, "Data
// flow of a sweep run"):
//
//	TableI    — QoS analysis: execution times on x86 / Cavium / NTC.
//	Fig1a/b   — worst-case DC power vs frequency at 10-90% utilisation.
//	Fig2      — normalised execution time vs frequency, QoS limit.
//	Fig3      — server efficiency (BUIPS/W) vs frequency.
//	Fig4to6   — week-long DC run: violations, active servers, energy.
//	Fig7      — EPACT vs COAT across the static-power sweep.
//
// The design-choice ablations (performance model, forecasting, trace
// correlation) live in this package's tests: ablations_test.go.
package experiments

import (
	"repro/internal/platform"
	"repro/internal/qos"
	"repro/internal/units"
	"repro/internal/workload"
)

// TableIRow is one workload row of Table I (seconds).
type TableIRow struct {
	Workload string

	// X86 is the Intel baseline at 2.66 GHz; QoSLimit is 2x that.
	X86, QoSLimit float64

	// Cavium and NTC are at 2 GHz.
	Cavium, NTC float64

	// SpeedupVsCavium is NTC's improvement factor (paper: 1.25-1.76x).
	SpeedupVsCavium float64
}

// TableIResult reproduces Table I.
type TableIResult struct {
	Rows []TableIRow
}

// TableI regenerates the paper's Table I from the calibrated
// performance models.
func TableI() *TableIResult {
	x86 := platform.IntelX5650()
	cavium := platform.CaviumThunderX()
	ntc := platform.NTCServer()

	res := &TableIResult{}
	for _, c := range workload.Classes() {
		tX86 := x86.ExecTime(c, units.GHz(2.66))
		tCav := cavium.ExecTime(c, units.GHz(2.0))
		tNTC := ntc.ExecTime(c, units.GHz(2.0))
		res.Rows = append(res.Rows, TableIRow{
			Workload:        c.String(),
			X86:             tX86,
			QoSLimit:        qos.Limit(c),
			Cavium:          tCav,
			NTC:             tNTC,
			SpeedupVsCavium: tCav / tNTC,
		})
	}
	return res
}
