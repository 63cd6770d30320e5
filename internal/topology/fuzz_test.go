package topology

import (
	"strings"
	"testing"
)

// FuzzParseSpec feeds arbitrary topology specs to the parser. It must
// never panic; every spec it accepts names a known dispatcher (or
// none) and a non-empty ref, is a file spec exactly when the ref ends
// in ".json", and parses back to itself from its canonical String.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"single", "triad", "greedy-proportional@triad", "uniform@fleet.json",
		"carbon-greedy@dir/a@b.json", "@triad", "bogus@triad", "", "x.json",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "topology: ") {
				t.Fatalf("ParseSpec(%q) error %q lacks the package prefix", spec, err)
			}
			return
		}
		if s.Ref == "" {
			t.Fatalf("ParseSpec(%q) accepted an empty ref", spec)
		}
		if s.Dispatcher != "" && !knownDispatcher(s.Dispatcher) {
			t.Fatalf("ParseSpec(%q) accepted unknown dispatcher %q", spec, s.Dispatcher)
		}
		if s.IsFile != strings.HasSuffix(s.Ref, ".json") {
			t.Fatalf("ParseSpec(%q): IsFile %v for ref %q", spec, s.IsFile, s.Ref)
		}
		if s.String() != spec {
			t.Fatalf("ParseSpec(%q).String() = %q", spec, s.String())
		}
		back, err := ParseSpec(s.String())
		if err != nil || back.Dispatcher != s.Dispatcher || back.Ref != s.Ref || back.IsFile != s.IsFile {
			t.Fatalf("ParseSpec(%q) = %+v does not round-trip: %+v, %v", spec, s, back, err)
		}
	})
}

// FuzzParseRebalanceSpec feeds arbitrary rebalance specs to the
// parser. It must never panic; every spec it accepts is off or has a
// positive epoch and a known dispatcher (or none), and its canonical
// String parses back to the same spec.
func FuzzParseRebalanceSpec(f *testing.F) {
	for _, seed := range []string{
		"off", "", "epoch:4", "epoch:6@carbon-greedy", "epoch:0", "epoch:-3",
		"epoch:+4", "epoch:4@", "epoch:4@bogus", "epoch:99999999999999999999",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := ParseRebalanceSpec(spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "topology: ") {
				t.Fatalf("ParseRebalanceSpec(%q) error %q lacks the package prefix", spec, err)
			}
			return
		}
		if !r.Enabled() && r != (RebalanceSpec{}) {
			t.Fatalf("ParseRebalanceSpec(%q) = %+v: disabled but not the zero spec", spec, r)
		}
		if r.Dispatcher != "" && !knownDispatcher(r.Dispatcher) {
			t.Fatalf("ParseRebalanceSpec(%q) accepted unknown dispatcher %q", spec, r.Dispatcher)
		}
		back, err := ParseRebalanceSpec(r.String())
		if err != nil || back != r {
			t.Fatalf("ParseRebalanceSpec(%q) = %+v does not round-trip through %q: %+v, %v",
				spec, r, r.String(), back, err)
		}
	})
}
