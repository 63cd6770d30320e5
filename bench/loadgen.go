package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"time"
)

// call is one scheduled request of an open-loop lane.
type call struct {
	due  time.Duration // offset from the lane's start
	kind string
	do   func() error
}

// outcome is what happened to one call. Latency runs from the call's
// due time, not from when it was sent, so a stall that delays later
// calls is charged to them too; late is how far behind schedule the
// generator sent it.
type outcome struct {
	kind    string
	latency time.Duration
	late    time.Duration
	err     error
}

// clock is the time source of a lane; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// runLane sends calls in order on one connection's worth of
// concurrency, each at its due time or as soon as the previous call
// returns, whichever is later: an open loop whose schedule does not
// slow down when the server does.
func runLane(clk clock, start time.Time, calls []call) []outcome {
	out := make([]outcome, len(calls))
	for i, c := range calls {
		due := start.Add(c.due)
		if d := due.Sub(clk.Now()); d > 0 {
			clk.Sleep(d)
		}
		sent := clk.Now()
		err := c.do()
		out[i] = outcome{kind: c.kind, latency: clk.Now().Sub(due), late: sent.Sub(due), err: err}
	}
	return out
}

// schedule returns the due times of a periodic request stream: every
// period from offset, up to (not including) the lane length.
func schedule(offset, period, length time.Duration) []time.Duration {
	var out []time.Duration
	for t := offset; t < length; t += period {
		out = append(out, t)
	}
	return out
}

// What-if kinds on serve-mix's what-if lane.
const (
	kindCold = "whatif_cold"
	kindWarm = "whatif_warm"
	kindFork = "fork"
)

// The what-if lane's mix, per 160 requests: new deltas (cold), repeats
// of earlier deltas (warm, answered from the result cache) and forks
// of a stepped session. A 20-second lane sends 80 requests, so 54 cold
// ones: three whole blocks of policy-rebalance pairs (see coldDeltas),
// and every seed asks for exactly the same costs.
const (
	mixCold = 108
	mixWarm = 36
	mixFork = 16
)

// The delta space cold what-ifs are drawn from, without replacement.
// deltaBody numbers it with the policy varying fastest and the
// rebalance slowest.
var (
	deltaPolicies   = []string{"EPACT", "COAT", "COAT-OPT", "FFD", "Verma-binary", "load-balance"}
	deltaStatic     = []float64{0, 10, 20, 30}
	deltaPower      = []string{"ntc", "tdp"}
	deltaServers    = []int{300, 200}
	deltaRebalances = []string{"off", "epoch:4@greedy-proportional", "epoch:6@follow-the-load"}
)

func deltaSpace() int {
	return len(deltaPolicies) * len(deltaStatic) * len(deltaPower) * len(deltaServers) * len(deltaRebalances)
}

// deltaBody renders delta i of the space as a what-if request body
// that pins every drawn axis to one value, so each delta is exactly one
// scenario.
func deltaBody(i int) []byte {
	pick := func(n int) int { v := i % n; i /= n; return v }
	req := struct {
		Policies     []string  `json:"policies"`
		StaticPowerW []float64 `json:"static_power_w"`
		PowerModels  []string  `json:"power_models"`
		MaxServers   []int     `json:"max_servers"`
		Rebalances   []string  `json:"rebalances"`
	}{
		Policies:     []string{deltaPolicies[pick(len(deltaPolicies))]},
		StaticPowerW: []float64{deltaStatic[pick(len(deltaStatic))]},
		PowerModels:  []string{deltaPower[pick(len(deltaPower))]},
		MaxServers:   []int{deltaServers[pick(len(deltaServers))]},
		Rebalances:   []string{deltaRebalances[pick(len(deltaRebalances))]},
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a fixed struct of strings and numbers always marshals
	}
	return b
}

// whatif is one request of the what-if lane: a kind and, for cold and
// warm requests, the delta it asks about.
type whatif struct {
	kind  string
	delta int
}

// whatifSequence draws the what-if lane's n requests from the seed: the
// mix's proportions in a seeded order, cold deltas drawn without
// replacement, and each warm request repeating a uniformly drawn
// earlier cold delta. Whether a request is cold or warm therefore
// depends on the seed alone, so two builds replay the same mix.
func whatifSequence(seed int64, n int) ([]whatif, error) {
	total := mixCold + mixWarm + mixFork
	nCold := max(1, (n*mixCold+total/2)/total)
	nFork := (n*mixFork + total/2) / total
	if nCold+nFork > n {
		nFork = n - nCold
	}
	if nCold > deltaSpace() {
		return nil, fmt.Errorf("what-if lane: %d cold deltas requested, the delta space holds %d", nCold, deltaSpace())
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6e74632d6d6978))
	kinds := make([]string, n)
	for i := range kinds {
		switch {
		case i < nCold:
			kinds[i] = kindCold
		case i < nCold+nFork:
			kinds[i] = kindFork
		default:
			kinds[i] = kindWarm
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// A warm request needs an earlier cold one to repeat.
	for i, seenCold := 0, false; i < n; i++ {
		if kinds[i] == kindWarm && !seenCold {
			for j := i + 1; j < n; j++ {
				if kinds[j] == kindCold {
					kinds[i], kinds[j] = kinds[j], kinds[i]
					break
				}
			}
		}
		seenCold = seenCold || kinds[i] == kindCold
	}
	draws := coldDeltas(rng, nCold)
	seq := make([]whatif, n)
	var colds []int
	for i, k := range kinds {
		seq[i].kind = k
		switch k {
		case kindCold:
			seq[i].delta = draws[len(colds)]
			colds = append(colds, seq[i].delta)
		case kindWarm:
			seq[i].delta = colds[rng.IntN(len(colds))]
		}
	}
	return seq, nil
}

// coldDeltas draws n distinct deltas (at most deltaSpace()), balanced
// over the two axes that set a cold what-if's cost: an epoch rebalancer
// makes one about three times as long as "off", and EPACT's allocation
// is the slowest policy. Every block of policies × rebalances draws
// holds each policy-rebalance pair once, and every three consecutive
// draws hold each rebalance once, so every seed asks for nearly the
// same mix of costs. The other axes are drawn without replacement
// within each pair.
func coldDeltas(rng *rand.Rand, n int) []int {
	nP, nR := len(deltaPolicies), len(deltaRebalances)
	variants := deltaSpace() / (nP * nR) // static power × power model × servers
	unused := make([][]int, nP*nR)       // per pair, its variants in a seeded order
	var (
		polOrder [][]int // per rebalance, the order of its policies in this block
		rebOrder []int   // the order of the rebalances in this group of draws
		out      = make([]int, 0, n)
	)
	for len(out) < n {
		j := len(out) % (nP * nR)
		if j == 0 {
			polOrder = make([][]int, nR)
			for r := range polOrder {
				polOrder[r] = rng.Perm(nP)
			}
		}
		if j%nR == 0 {
			rebOrder = rng.Perm(nR)
		}
		r := rebOrder[j%nR]
		p := polOrder[r][j/nR]
		pair := r*nP + p
		if unused[pair] == nil {
			unused[pair] = rng.Perm(variants)
		}
		v := unused[pair][0]
		unused[pair] = unused[pair][1:]
		out = append(out, p+nP*(v+variants*r))
	}
	return out
}
