package sweep

// Hooks for the external tests (package sweep_test), which import
// internal/sweep/dist and so cannot live in package sweep.

// PricingGrid is pricingGrid.
var PricingGrid = pricingGrid

// DisableMemo turns rn's allocation memo off: every policy call runs.
func DisableMemo(rn *Runner) { rn.memo = nil }

// Grid returns the defaulted grid the Runner executes.
func (r *Runner) Grid() Grid { return r.grid }
