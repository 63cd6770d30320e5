package main

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// fakeClock advances only when a lane sleeps or a call takes time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

// A stall delays every call queued behind it; timed from their due
// times, those calls show the wait, although each one is served as
// fast as usual once sent.
func TestRunLaneChargesStallsToLaterCalls(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.Now()
	var calls []call
	for i := 0; i < 10; i++ {
		service := time.Millisecond
		if i == 2 {
			service = 45 * time.Millisecond // the stall
		}
		calls = append(calls, call{
			due:  time.Duration(i) * 10 * time.Millisecond,
			kind: "req",
			do:   func() error { clk.Sleep(service); return nil },
		})
	}
	out := runLane(clk, start, calls)

	wantLatency := []time.Duration{1, 1, 45, 36, 27, 18, 9, 1, 1, 1}
	wantLate := []time.Duration{0, 0, 0, 35, 26, 17, 8, 0, 0, 0}
	for i, o := range out {
		if o.latency != wantLatency[i]*time.Millisecond || o.late != wantLate[i]*time.Millisecond {
			t.Errorf("call %d: latency %v, late %v; want %v, %v", i, o.latency, o.late,
				wantLatency[i]*time.Millisecond, wantLate[i]*time.Millisecond)
		}
		if served := o.latency - o.late; i != 2 && served != time.Millisecond {
			t.Errorf("call %d: served in %v, want 1ms", i, served)
		}
	}
}

func TestScheduleIsPeriodicWithinLength(t *testing.T) {
	got := schedule(20*time.Millisecond, 250*time.Millisecond, time.Second)
	want := []time.Duration{20, 270, 520, 770}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if !slices.Equal(got, want) {
		t.Errorf("schedule = %v, want %v", got, want)
	}
}

func TestWhatifSequenceIsSeeded(t *testing.T) {
	a, err := whatifSequence(2018, 160)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := whatifSequence(2018, 160)
	c, _ := whatifSequence(2019, 160)
	if !slices.Equal(a, b) {
		t.Error("the same seed gave two different sequences")
	}
	if slices.Equal(a, c) {
		t.Error("seeds 2018 and 2019 gave the same sequence")
	}

	count := map[string]int{}
	cold := map[int]bool{}
	for i, q := range a {
		count[q.kind]++
		switch q.kind {
		case kindCold:
			if cold[q.delta] {
				t.Errorf("request %d: cold delta %d was asked before", i, q.delta)
			}
			cold[q.delta] = true
		case kindWarm:
			if !cold[q.delta] {
				t.Errorf("request %d: warm delta %d repeats no earlier cold one", i, q.delta)
			}
		}
	}
	if count[kindCold] != mixCold || count[kindWarm] != mixWarm || count[kindFork] != mixFork {
		t.Errorf("mix = %v, want %d cold, %d warm, %d fork", count, mixCold, mixWarm, mixFork)
	}
}

// A 20-second lane's cold what-ifs ask for the same policy-rebalance
// pairs whatever the seed, so the seed orders the costs but does not
// change them.
func TestWhatifLaneCostsDoNotDependOnSeed(t *testing.T) {
	n := len(schedule(whatifOffset, whatifPeriod, defaultSeconds*time.Second))
	nP, nR := len(deltaPolicies), len(deltaRebalances)
	pairs := func(seed int64) map[int]int {
		seq, err := whatifSequence(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		m := map[int]int{}
		for _, q := range seq {
			if q.kind == kindCold {
				m[q.delta%nP+nP*(q.delta/(deltaSpace()/nR))]++
			}
		}
		return m
	}
	want := pairs(2018)
	for pair := 0; pair < nP*nR; pair++ {
		if want[pair] != want[0] {
			t.Fatalf("seed 2018 asks for pair %d %d times and pair 0 %d times", pair, want[pair], want[0])
		}
	}
	for seed := int64(2019); seed < 2028; seed++ {
		if got := pairs(seed); !maps.Equal(got, want) {
			t.Errorf("seed %d asks for pairs %v, seed 2018 for %v", seed, got, want)
		}
	}
}

// Cold deltas are distinct, every block of policies × rebalances draws
// holds each pair once, and every aligned three draws hold each
// rebalance once.
func TestColdDeltasAreBalanced(t *testing.T) {
	nP, nR := len(deltaPolicies), len(deltaRebalances)
	block := nP * nR
	all := coldDeltas(rand.New(rand.NewPCG(7, 7)), deltaSpace())
	seen := map[int]bool{}
	pairs := map[int]int{}
	rebs := map[int]int{}
	for i, d := range all {
		if seen[d] {
			t.Fatalf("draw %d: delta %d drawn twice", i, d)
		}
		seen[d] = true
		p, r := d%nP, d/(deltaSpace()/nR)
		pairs[r*nP+p]++
		rebs[r]++
		if (i+1)%nR == 0 {
			for r := 0; r < nR; r++ {
				if rebs[r] != (i+1)/nR {
					t.Fatalf("after %d draws rebalance %d was drawn %d times", i+1, r, rebs[r])
				}
			}
		}
		if (i+1)%block == 0 {
			for pair := 0; pair < block; pair++ {
				if pairs[pair] != (i+1)/block {
					t.Fatalf("after %d draws pair %d was drawn %d times", i+1, pair, pairs[pair])
				}
			}
		}
	}
	if len(seen) != deltaSpace() {
		t.Errorf("%d distinct deltas, want %d", len(seen), deltaSpace())
	}
}

// Every delta of the space renders to its own request body.
func TestDeltaBodiesAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < deltaSpace(); i++ {
		b := string(deltaBody(i))
		if j, dup := seen[b]; dup {
			t.Fatalf("deltas %d and %d both render %s", j, i, b)
		}
		seen[b] = i
	}
}
