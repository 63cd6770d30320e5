package perf

import (
	"repro/internal/platform"
	"repro/internal/units"
	"repro/internal/workload"
)

// Table caches Observe results per (workload class, DVFS level).
//
// The data-center replay loop requests observables for every busy
// (server, sample, class) triple, but Observe with a fixed activeCores
// is a pure function of (platform, class, frequency) and every sample
// runs at a level of the server's DVFS grid (the governor's clamped
// level, or a fixed-cap policy's planned level) — so the whole
// reachable input space is classes × levels and can be evaluated once
// per run. At returns the exact Observables values Observe would, bit
// for bit, because NewTable simply calls Observe at each grid point.
type Table struct {
	classes int
	cells   []Observables // row-major: cells[level*classes + class]
}

// NewTable evaluates Observe for every workload class at every
// frequency in levels (typically power.ServerModel.DVFSGrid()) with
// the given activeCores.
func NewTable(p *platform.Platform, levels []units.Frequency, activeCores float64) *Table {
	classes := workload.Classes()
	t := &Table{
		classes: len(classes),
		cells:   make([]Observables, len(levels)*len(classes)),
	}
	for li, f := range levels {
		for _, c := range classes {
			t.cells[li*t.classes+int(c)] = Observe(p, c, f, activeCores)
		}
	}
	return t
}

// At returns the cached observables for class c at index level of
// the frequency grid the table was built over.
func (t *Table) At(c workload.Class, level int) Observables {
	return t.cells[level*t.classes+int(c)]
}
