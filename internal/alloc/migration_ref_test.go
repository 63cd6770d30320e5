package alloc

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps a verbatim copy of the map-based migration matching
// (three maps per call, votes sorted with slices.SortFunc) and tests
// that MigrationMatcher.Compare counts exactly what it counts, on
// every input it accepts.

func refCompareAssignments(prev, next *Assignment, memBytes []float64) MigrationStats {
	var out MigrationStats
	if prev == nil || next == nil {
		return out
	}
	n := len(next.VMServer)
	if len(prev.VMServer) != n {
		return out
	}

	// Map each previous server to the next-assignment server that
	// holds the plurality of its VMs; VMs moving with the plurality
	// are "stays".
	type pair struct{ prevSrv, nextSrv int }
	votes := map[pair]int{}
	for vm := 0; vm < n; vm++ {
		votes[pair{prev.VMServer[vm], next.VMServer[vm]}]++
	}
	match := map[int]int{}
	// Greedy plurality matching: biggest vote first, one-to-one.
	type vote struct {
		p pair
		n int
	}
	var all []vote
	for p, c := range votes {
		all = append(all, vote{p, c})
	}
	// Sort by count descending, ties broken on indices: a strict total
	// order over distinct pairs, so the result is deterministic.
	slices.SortFunc(all, func(a, b vote) int {
		return cmp.Or(cmp.Compare(b.n, a.n), cmp.Compare(a.p.prevSrv, b.p.prevSrv),
			cmp.Compare(a.p.nextSrv, b.p.nextSrv))
	})
	usedNext := map[int]bool{}
	for _, v := range all {
		if _, ok := match[v.p.prevSrv]; ok || usedNext[v.p.nextSrv] {
			continue
		}
		match[v.p.prevSrv] = v.p.nextSrv
		usedNext[v.p.nextSrv] = true
	}

	for vm := 0; vm < n; vm++ {
		if match[prev.VMServer[vm]] == next.VMServer[vm] {
			out.Stayed++
			continue
		}
		out.Migrations++
		if memBytes != nil && vm < len(memBytes) {
			out.BytesMoved += memBytes[vm]
		}
	}
	return out
}

// checkMigrationsMatchRef fails t unless m counts what the reference
// counts on (prev, next, mem), bytes moved bit for bit.
func checkMigrationsMatchRef(t *testing.T, m *MigrationMatcher, prev, next *Assignment, mem []float64) {
	t.Helper()
	got := m.Compare(prev, next, mem)
	want := refCompareAssignments(prev, next, mem)
	if got.Migrations != want.Migrations || got.Stayed != want.Stayed ||
		math.Float64bits(got.BytesMoved) != math.Float64bits(want.BytesMoved) {
		t.Fatalf("prev %v → next %v: got %+v, reference %+v", servers(prev), servers(next), got, want)
	}
}

func servers(a *Assignment) []int {
	if a == nil {
		return nil
	}
	return a.VMServer
}

// randomServers draws n server indices for an assignment: dense
// (0..k-1), shifted negative, or sparse with extreme values.
func randomServers(rng *rand.Rand, n, k int) []int {
	out := make([]int, n)
	mode := rng.Intn(4)
	for i := range out {
		v := rng.Intn(k)
		switch mode {
		case 1:
			v -= k / 2
		case 2:
			// Huge labels: 2^40 apart on 64-bit, 2^8 on 32-bit.
			v *= 1 << (bits.UintSize - 24)
		case 3:
			switch rng.Intn(8) {
			case 0:
				v = math.MaxInt
			case 1:
				v = math.MinInt
			case 2:
				v = -1
			}
		}
		out[i] = v
	}
	return out
}

func TestMigrationMatcherMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var m MigrationMatcher // reused: stale scratch must never leak
	for it := 0; it < 3000; it++ {
		n := rng.Intn(40)
		if it%10 == 0 {
			n = rng.Intn(700)
		}
		k := 1 + rng.Intn(n+3)
		prev := &Assignment{VMServer: randomServers(rng, n, k)}
		next := &Assignment{VMServer: randomServers(rng, n, 1+rng.Intn(n+3))}
		if rng.Intn(3) == 0 {
			// A small perturbation of prev: the shape a slot-to-slot
			// re-allocation produces, relabelled servers included.
			shift := rng.Intn(3)
			for vm, s := range prev.VMServer {
				next.VMServer[vm] = s + shift
				if rng.Intn(8) == 0 {
					next.VMServer[vm] = rng.Intn(k)
				}
			}
		}
		var mem []float64
		if rng.Intn(2) == 0 {
			mem = make([]float64, rng.Intn(n+2))
			for i := range mem {
				mem[i] = rng.Float64() * 1e9
			}
		}
		checkMigrationsMatchRef(t, &m, prev, next, mem)
	}

	// Nil sides, empty and nil populations, mismatched lengths.
	a := &Assignment{VMServer: []int{0, 1, 1}}
	for _, c := range [][2]*Assignment{
		{nil, nil}, {nil, a}, {a, nil},
		{{}, {}}, {{VMServer: []int{}}, {}},
		{a, {VMServer: []int{0, 1}}}, {{VMServer: []int{0}}, a},
	} {
		checkMigrationsMatchRef(t, &m, c[0], c[1], []float64{1, 2, 3})
	}
}

// TestUnmatchedServerReadsAsServerZero pins the matching's current
// quirk: a VM whose previous server got no plurality match is compared
// against server 0, so a move onto server 0 counts as a stay and the
// label-swapped move counts as a migration. Correcting it changes
// result semantics; these asserts are the ones that flip then.
func TestUnmatchedServerReadsAsServerZero(t *testing.T) {
	for _, c := range []struct {
		prev, next []int
		want       int
	}{
		{[]int{0, 0, 1}, []int{0, 0, 0}, 0},
		{[]int{1, 1, 0}, []int{1, 1, 1}, 1},
	} {
		prev, next := &Assignment{VMServer: c.prev}, &Assignment{VMServer: c.next}
		if got := new(MigrationMatcher).Compare(prev, next, nil); got.Migrations != c.want || got.Stayed != 3-c.want {
			t.Errorf("%v → %v: %+v, want %d migrations", c.prev, c.next, got, c.want)
		}
		if got := refCompareAssignments(prev, next, nil); got.Migrations != c.want {
			t.Errorf("reference %v → %v: %+v, want %d migrations", c.prev, c.next, got, c.want)
		}
	}
}

// FuzzMigrationMatcher decodes bytes into a pair of assignments and
// checks the matcher against the reference. The first byte picks the
// shape: the population split, nil sides and extreme server indices.
func FuzzMigrationMatcher(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{0, 1, 1, 0, 1, 1, 1})
	f.Add([]byte{1, 3, 255, 254, 7, 3, 3, 255, 0})
	f.Add([]byte{2, 5, 5})
	f.Add([]byte{})
	var m MigrationMatcher
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			checkMigrationsMatchRef(t, &m, &Assignment{}, &Assignment{}, nil)
			return
		}
		mode, body := data[0], data[1:]
		decode := func(b byte) int {
			switch b {
			case 255:
				return math.MaxInt
			case 254:
				return math.MinInt
			case 253:
				return -1
			}
			if mode&4 != 0 {
				return int(b) << (bits.UintSize - 14) // 2^50 apart on 64-bit
			}
			return int(b % 16)
		}
		half := len(body) / 2
		prevSrv := make([]int, half)
		nextSrv := make([]int, len(body)-half)
		for i := range prevSrv {
			prevSrv[i] = decode(body[i])
		}
		for i := range nextSrv {
			nextSrv[i] = decode(body[half+i])
		}
		if mode&1 != 0 && len(nextSrv) > len(prevSrv) {
			nextSrv = nextSrv[:len(prevSrv)] // equal populations
		}
		prev, next := &Assignment{VMServer: prevSrv}, &Assignment{VMServer: nextSrv}
		switch mode % 8 {
		case 2:
			prev = nil
		case 3:
			next = nil
		}
		mem := make([]float64, len(body)%7)
		for i := range mem {
			mem[i] = float64(i+1) * 1e8
		}
		checkMigrationsMatchRef(t, &m, prev, next, mem)
	})
}
