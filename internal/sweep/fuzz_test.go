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

// fuzzRowGrid is the one-scenario grid FuzzDecodeCachedRow decodes
// rows against.
func fuzzRowGrid() Grid {
	return Grid{
		Policies:    []string{"FFD"},
		VMs:         []int{30},
		MaxServers:  []int{30},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
	}
}

func fuzzRowScenario(t testing.TB) Scenario {
	t.Helper()
	scens, err := Expand(fuzzRowGrid())
	if err != nil || len(scens) != 1 {
		t.Fatalf("Expand = %d scenarios, %v; want 1", len(scens), err)
	}
	return scens[0]
}

// FuzzDecodeCachedRow feeds arbitrary bytes to the result-store row
// decoder as the row for one fixed scenario. It must never panic, and
// a row it accepts answers exactly that scenario, records no failure
// and is marked Cached. The committed corpus under
// testdata/fuzz/FuzzDecodeCachedRow holds a real row, that row with an
// unknown field and with trailing bytes, another scenario's row and a
// failed row; only the first decodes.
func FuzzDecodeCachedRow(f *testing.F) {
	s := fuzzRowScenario(f)
	f.Fuzz(func(t *testing.T, row []byte) {
		r, ok := DecodeCachedRow(row, s)
		if ok && (r.Scenario != s || r.Err != "" || !r.Cached) {
			t.Fatalf("DecodeCachedRow accepted a row for %q (error %q, cached %v); want %q, no error, cached",
				r.Scenario.ID(), r.Err, r.Cached, s.ID())
		}
	})
}
