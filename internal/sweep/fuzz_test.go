package sweep

import (
	"strings"
	"testing"
)

// maxFuzzScenarios bounds the grids FuzzParseGridJSON expands: a
// valid grid's axis product can be astronomically large.
const maxFuzzScenarios = 4096

// FuzzParseGridJSON feeds arbitrary bytes to the grid-file parser. It
// must never panic, and every error carries the package prefix. A grid
// that validates (after defaults) with at most maxFuzzScenarios points
// must expand without error to exactly its axis product.
func FuzzParseGridJSON(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"policies": ["EPACT", "COAT-OPT"], "vms": [40], "predictors": ["oracle"]}`,
		`{"transitions": ["default", {"name": "none"}]}`,
		`{"history_days": -1}`,
		`[1, 2]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGridJSON(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "sweep: ") {
				t.Fatalf("ParseGridJSON error %q lacks the package prefix", err)
			}
			return
		}
		d := g.WithDefaults()
		if d.Validate() != nil {
			return
		}
		want := 1
		for _, n := range []int{len(d.Traces), len(d.Topologies), len(d.Rebalances), len(d.Seeds),
			len(d.VMs), len(d.MaxServers), len(d.StaticPowerW), len(d.Predictors),
			len(d.Transitions), len(d.ChurnFractions), len(d.PowerModels), len(d.Policies)} {
			if want *= n; want > maxFuzzScenarios {
				return
			}
		}
		scens, err := Expand(g)
		if err != nil {
			t.Fatalf("Expand rejected a grid that validates: %v", err)
		}
		if len(scens) != want {
			t.Fatalf("Expand returned %d scenarios, want the axis product %d", len(scens), want)
		}
	})
}
