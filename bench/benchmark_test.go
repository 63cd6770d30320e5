package main

import (
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitName   = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json declares what the benchmark reports; it must match the
// benchmark's own tables and stay within the declaration's limits.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bf.Command, []string{"bash", "bench/run.sh"}) || !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", bf.Command, bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", bf.RunSeconds, defaultSeconds)
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q (%q), the benchmark has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 || len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; want 1-16 and 1-128", len(bf.EndToEnd), len(bf.PerLayer))
	}
	var declaredE2E, declaredLayer []metricDef
	maxBound := 0.0
	for _, m := range bf.EndToEnd {
		declaredE2E = append(declaredE2E, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
		if m.Bound <= 0 || m.Bound > 0.20 {
			t.Errorf("%s: bound %v outside (0, 0.20]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bf.PerLayer {
		declaredLayer = append(declaredLayer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound; got %+v", m)
		}
	}
	if !slices.Equal(declaredE2E, endToEnd) {
		t.Errorf("end_to_end declares %v, the benchmark reports %v", declaredE2E, endToEnd)
	}
	if !slices.Equal(declaredLayer, perLayer) {
		t.Errorf("per_layer declares %v, the benchmark reports %v", declaredLayer, perLayer)
	}

	seen := map[string]bool{}
	for _, m := range append(declaredE2E, declaredLayer...) {
		if !metricName.MatchString(m.Name) || !unitName.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q): bad name or unit", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}
