package dcsim

import (
	"weak"

	"repro/internal/trace"
)

// MemoisedUnder returns the live traces the validation memo holds an
// entry for whose root is root.
func MemoisedUnder(root *trace.Trace) []*trace.Trace {
	var out []*trace.Trace
	validatedTraces.Range(func(k, _ any) bool {
		if tr := k.(weak.Pointer[trace.Trace]).Value(); tr != nil && tr.Root() == root {
			out = append(out, tr)
		}
		return true
	})
	return out
}
