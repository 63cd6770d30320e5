package alloc

import "slices"

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

// MigrationMatcher counts the VM moves between consecutive
// assignments (see Compare). It keeps its scratch between calls, so a
// run that owns one matcher compares slot after slot without
// allocating once the buffers have grown. The zero value is ready to
// use; a matcher is not safe for concurrent use.
type MigrationMatcher struct {
	// Per VM: the dense server ranks of prev and next, and the VM
	// order the counting sort builds.
	prevRank, nextRank []int
	tmp, order         []int

	// Per server rank: counting-sort offsets, the matched next server
	// (its raw index) of each previous server, and the sides already
	// matched.
	cnt                   []int
	matchSrv              []int
	matchedPrev, usedNext []bool

	// Per distinct (prev, next) pair, in (prev, next) order.
	pairs []migrationPair
	keys  []uint64

	// vals holds the sorted distinct server indices when they are too
	// sparse to rank by offset.
	vals []int
}

// migrationPair is one distinct (previous server, next server) pair:
// the servers' dense ranks and the next server's raw index.
type migrationPair struct {
	prev, next, nextSrv int
}

// Compare counts the VM moves from prev to next. The two assignments
// must cover the same VM population (same length); a nil prev means
// an initial placement with no migrations. memBytes, when non-nil,
// supplies each VM's resident-set size for BytesMoved.
//
// Server indices are matched by identity of membership rather than
// raw index: a server that keeps the same VM set under a different
// index does not count as a migration of its VMs. This mirrors how a
// real orchestrator would re-number its hosts. Each previous server is
// matched to the next server holding the plurality of its VMs, greedily
// by vote count (ties broken on the lower previous, then next, server
// index), one to one; VMs moving with the plurality are stays. A VM
// whose previous server got no match is compared against server 0.
//
// The matching runs on dense per-server arrays: server indices are
// ranked in order, VMs are counting-sorted by (previous, next) rank so
// each distinct pair is one run, and one sort of packed (count, pair)
// integer keys orders the votes. Keys pack into 64 bits for
// populations below 2^32 VMs.
func (m *MigrationMatcher) Compare(prev, next *Assignment, memBytes []float64) MigrationStats {
	var out MigrationStats
	if prev == nil || next == nil {
		return out
	}
	n := len(next.VMServer)
	if len(prev.VMServer) != n || n == 0 {
		return out
	}
	ranks := m.rank(prev.VMServer, next.VMServer)

	// Counting sort by next rank, then stably by previous rank: VMs of
	// one (prev, next) pair end up adjacent, pairs in rank order.
	m.tmp = resize(m.tmp, n)
	m.order = resize(m.order, n)
	m.countingSort(m.tmp, nil, m.nextRank, ranks)
	m.countingSort(m.order, m.tmp, m.prevRank, ranks)

	// One vote per distinct pair, keyed by count descending, then by
	// pair position, which is (prev, next) ascending.
	m.pairs = m.pairs[:0]
	m.keys = m.keys[:0]
	for lo := 0; lo < n; {
		vm := m.order[lo]
		pr, nr := m.prevRank[vm], m.nextRank[vm]
		hi := lo + 1
		for hi < n && m.prevRank[m.order[hi]] == pr && m.nextRank[m.order[hi]] == nr {
			hi++
		}
		m.keys = append(m.keys, uint64(n-(hi-lo))<<32|uint64(len(m.pairs)))
		m.pairs = append(m.pairs, migrationPair{pr, nr, next.VMServer[vm]})
		lo = hi
	}
	slices.Sort(m.keys)

	// Greedy plurality matching: biggest vote first, one to one. An
	// unmatched previous server keeps match 0.
	m.matchSrv = resize(m.matchSrv, ranks)
	m.matchedPrev = resize(m.matchedPrev, ranks)
	m.usedNext = resize(m.usedNext, ranks)
	clear(m.matchSrv)
	clear(m.matchedPrev)
	clear(m.usedNext)
	for _, k := range m.keys {
		p := m.pairs[uint32(k)]
		if m.matchedPrev[p.prev] || m.usedNext[p.next] {
			continue
		}
		m.matchSrv[p.prev] = p.nextSrv
		m.matchedPrev[p.prev] = true
		m.usedNext[p.next] = true
	}

	for vm := 0; vm < n; vm++ {
		if m.matchSrv[m.prevRank[vm]] == next.VMServer[vm] {
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

// rank fills m.prevRank and m.nextRank with order-preserving dense
// ranks of the server indices of prev and next, and returns how many
// ranks there are. Indices within 4 × VMs of each other rank by their
// offset from the smallest; sparser ones by their position among the
// sorted distinct indices.
func (m *MigrationMatcher) rank(prev, next []int) int {
	n := len(prev)
	m.prevRank = resize(m.prevRank, n)
	m.nextRank = resize(m.nextRank, n)
	lo, hi := prev[0], prev[0]
	for _, srv := range [2][]int{prev, next} {
		for _, v := range srv {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	// The unsigned difference is exact for any pair of ints.
	if span := uint64(hi) - uint64(lo); span < uint64(4*n) {
		for vm := range prev {
			m.prevRank[vm] = int(uint64(prev[vm]) - uint64(lo))
			m.nextRank[vm] = int(uint64(next[vm]) - uint64(lo))
		}
		return int(span) + 1
	}
	m.vals = append(append(m.vals[:0], prev...), next...)
	slices.Sort(m.vals)
	m.vals = slices.Compact(m.vals)
	for vm := range prev {
		m.prevRank[vm], _ = slices.BinarySearch(m.vals, prev[vm])
		m.nextRank[vm], _ = slices.BinarySearch(m.vals, next[vm])
	}
	return len(m.vals)
}

// countingSort writes into dst the VMs of src (0..len(dst)-1 when src
// is nil) stably sorted by key, whose values lie in [0, ranks).
func (m *MigrationMatcher) countingSort(dst, src, key []int, ranks int) {
	m.cnt = resize(m.cnt, ranks+1)
	clear(m.cnt)
	for _, k := range key {
		m.cnt[k+1]++
	}
	for r := 1; r <= ranks; r++ {
		m.cnt[r] += m.cnt[r-1]
	}
	for i := range dst {
		vm := i
		if src != nil {
			vm = src[i]
		}
		dst[m.cnt[key[vm]]] = vm
		m.cnt[key[vm]]++
	}
}

// resize returns buf resliced to n, reallocating only when too small.
// The contents are stale.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
