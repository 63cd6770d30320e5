package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// benchmarkFile is BENCHMARK.json, the benchmark's declaration.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// child runs one workload in a fresh process of this binary, so its
// memory and collector counters are its own, and returns the result
// line. The child's report goes to stderr.
func child(o options, name string, seed int64, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0", "-workdir", o.workdir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: no result line (%v, exit: %v)", name, seed, err, runErr)
	}
	return res, nil
}

// runAll runs every workload once, each in its own process, and prints
// a combined result line whose metrics are named <workload>.<metric>.
func runAll(o options, stdout, stderr io.Writer) int {
	all := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range workloads {
		res, err := child(o, w.name, o.seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, v := range res.Metrics {
			all.Metrics[w.name+"."+name] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// stabilityRuns is how many runs, each with its own seed, the
// stability check makes of every workload per set.
const stabilityRuns = 10

// stability runs o.sets sets of stabilityRuns runs of every workload,
// seeds o.seed onwards. The sets are interleaved — run r of every set
// follows run r-1 of every set — so a slow spell of a shared host falls
// on all sets alike instead of on whichever set ran during it. The
// workload order alternates from set to set and from round to round,
// so no set always runs a workload right after another set's run of
// it. For each
// workload and end-to-end metric it prints each set's median and
// quartiles, the spread (interquartile distance over the median) and
// how far the set's median lies from the first set's, either way. It
// fails when a spread other than setup_s's, or any drift, exceeds the
// metric's bound in BENCHMARK.json.
func stability(o options, stdout, stderr io.Writer) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, o.sets)
	for s := range values {
		values[s] = map[string]map[string][]float64{}
	}
	correct := true
	for r := range stabilityRuns {
		for s := range values {
			order := workloadNames()
			if (r+s)%2 == 1 {
				slices.Reverse(order)
			}
			for _, name := range order {
				res, err := child(o, name, o.seed+int64(r), stderr)
				if err != nil || !res.Correct {
					fmt.Fprintf(stderr, "bench: set %d, %s seed %d: failed (%v)\n", s+1, name, o.seed+int64(r), err)
					correct = false
					continue
				}
				if values[s][name] == nil {
					values[s][name] = map[string][]float64{}
				}
				for m, v := range res.Metrics {
					values[s][name][m] = append(values[s][name][m], v.Value)
				}
			}
		}
	}

	ok := correct
	fmt.Fprintf(stdout, "%-12s %-27s %6s %4s %12s %12s %12s %8s %8s\n",
		"workload", "metric", "bound", "set", "median", "q1", "q3", "spread", "drift")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			first := median(values[0][w.name][m.Name])
			for s := range values {
				xs := values[s][w.name][m.Name]
				if len(xs) < 2 {
					fmt.Fprintf(stdout, "%-12s %-27s %6.2f %4d  too few runs\n", w.name, m.Name, m.Bound, s+1)
					ok = false
					continue
				}
				med := median(xs)
				q1, q3 := quartiles(xs)
				spread := (q3 - q1) / med
				drift := (med - first) / first
				if m.Better == "higher" {
					drift = -drift
				}
				verdict := ""
				if m.Name != "setup_s" && spread > m.Bound {
					verdict += " SPREAD"
				}
				if math.Abs(drift) > m.Bound {
					verdict += " DRIFT"
				}
				ok = ok && verdict == ""
				fmt.Fprintf(stdout, "%-12s %-27s %6.2f %4d %12.4f %12.4f %12.4f %8.4f %8.4f%s\n",
					w.name, m.Name, m.Bound, s+1, med, q1, q3, spread, drift, verdict)
			}
		}
	}
	if !ok {
		fmt.Fprintln(stdout, "stability check: FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "stability check: passed")
	return 0
}
