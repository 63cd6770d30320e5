package alloc

import (
	"cmp"
	"slices"
)

// Migration accounting: re-allocating every slot moves VMs between
// servers; each move costs a memory copy over the network plus
// downtime. The paper's related work (Ruan et al., Beloglazov et al.)
// optimises explicitly for migrations; EPACT does not, so quantifying
// its churn is a natural extension experiment.

// MigrationStats summarises the difference between two consecutive
// assignments over the same VM population.
type MigrationStats struct {
	// Migrations is the number of VMs whose server changed.
	Migrations int

	// Stayed is the number of VMs that kept their server.
	Stayed int

	// BytesMoved is the total memory copied, assuming each migrated
	// VM moves its resident set (supplied by the caller per VM).
	BytesMoved float64
}

// MigrationRate returns migrations / total VMs.
func (m MigrationStats) MigrationRate() float64 {
	total := m.Migrations + m.Stayed
	if total == 0 {
		return 0
	}
	return float64(m.Migrations) / float64(total)
}

// CompareAssignments counts the VM moves from prev to next. The two
// assignments must cover the same VM population (same length); a nil
// prev means an initial placement with no migrations. memBytes, when
// non-nil, supplies each VM's resident-set size for BytesMoved.
//
// Server indices are matched by identity of membership rather than
// raw index: a server that keeps the same VM set under a different
// index does not count as a migration of its VMs. This mirrors how a
// real orchestrator would re-number its hosts.
func CompareAssignments(prev, next *Assignment, memBytes []float64) MigrationStats {
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
