package experiments

// The event-granular reference for the performance-model ablation
// (AblationPerfModel): an LRU set-associative cache simulator, the
// unloaded DDR4-2400 line fetch, and the micro model that drives a
// synthetic memory reference stream through them. The production
// path is the calibrated analytical model in internal/perf; this
// reference only cross-checks its aggregates, so it lives with the
// tests that use it.

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
	"repro/internal/workload"
)

// cacheConfig describes one cache level.
type cacheConfig struct {
	Size     units.ByteSize
	LineSize units.ByteSize
	Ways     int
}

// Sets returns the number of sets implied by the configuration.
func (c cacheConfig) Sets() int {
	lines := int(float64(c.Size) / float64(c.LineSize))
	if c.Ways <= 0 {
		return 0
	}
	return lines / c.Ways
}

// Validate checks the configuration for internal consistency: sizes
// must be positive, the line count must divide evenly into ways, and
// the set count must be a power of two (for the index function).
func (c cacheConfig) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0 {
		return errors.New("cache: size, line size and ways must be positive")
	}
	lines := float64(c.Size) / float64(c.LineSize)
	if lines != float64(int(lines)) {
		return errors.New("cache: size must be a multiple of the line size")
	}
	if int(lines)%c.Ways != 0 {
		return errors.New("cache: line count must be a multiple of ways")
	}
	sets := c.Sets()
	if sets == 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	return nil
}

// cacheStats accumulates access statistics.
type cacheStats struct {
	Accesses, Hits, Misses uint64
	Writebacks             uint64
}

// lruCache is an LRU set-associative cache simulator with a
// write-back, write-allocate policy.
type lruCache struct {
	cfg      cacheConfig
	lineBits uint
	setMask  uint64
	// tags[set][way] and dirty[set][way]; lru[set][way] holds a
	// recency counter (higher = more recent).
	tags  [][]uint64
	valid [][]bool
	dirty [][]bool
	lru   [][]uint64
	clock uint64
	stats cacheStats
}

// newLRUCache builds a cache from cfg.
func newLRUCache(cfg cacheConfig) (*lruCache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &lruCache{
		cfg:     cfg,
		setMask: uint64(sets - 1),
	}
	for bits := uint(0); ; bits++ {
		if 1<<bits == int(float64(cfg.LineSize)) {
			c.lineBits = bits
			break
		}
		if 1<<bits > int(float64(cfg.LineSize)) {
			return nil, errors.New("cache: line size must be a power of two")
		}
	}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.dirty = make([][]bool, sets)
	c.lru = make([][]uint64, sets)
	for i := 0; i < sets; i++ {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.dirty[i] = make([]bool, cfg.Ways)
		c.lru[i] = make([]uint64, cfg.Ways)
	}
	return c, nil
}

// Access simulates one access to byte address addr. write marks a
// store. It returns true on a hit.
func (c *lruCache) Access(addr uint64, write bool) bool {
	c.clock++
	c.stats.Accesses++
	line := addr >> c.lineBits
	set := line & c.setMask
	tag := line // full line id as tag; the set index repeats but stays unique per line

	ways := c.cfg.Ways
	victim := 0
	var victimLRU uint64 = ^uint64(0)
	for w := 0; w < ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.stats.Hits++
			c.lru[set][w] = c.clock
			if write {
				c.dirty[set][w] = true
			}
			return true
		}
		if !c.valid[set][w] {
			victim = w
			victimLRU = 0
		} else if c.lru[set][w] < victimLRU {
			victim = w
			victimLRU = c.lru[set][w]
		}
	}
	c.stats.Misses++
	if c.valid[set][victim] && c.dirty[set][victim] {
		c.stats.Writebacks++
	}
	c.valid[set][victim] = true
	c.tags[set][victim] = tag
	c.dirty[set][victim] = write
	c.lru[set][victim] = c.clock
	return false
}

// Stats returns a copy of the accumulated statistics.
func (c *lruCache) Stats() cacheStats { return c.stats }

// ResetStats clears the counters but keeps the cache contents — used
// to separate warm-up from measurement phases.
func (c *lruCache) ResetStats() { c.stats = cacheStats{} }

// ddr4 describes one memory channel of the NTC server, following the
// Micron DDR4 datasheet parameters the paper cites.
type ddr4 struct {
	// DataRate is the transfer rate in MT/s (2400 for DDR4-2400).
	DataRate float64

	// BusBytes is the data-bus width in bytes (8 for a x64 channel).
	BusBytes float64

	// BaseLatency is the unloaded read latency seen by the core,
	// including controller and interconnect time.
	BaseLatency float64

	// LineBytes is the transfer granularity (one 64 B cache line).
	LineBytes float64
}

// ntcDDR4 returns the NTC server's memory configuration: DDR4
// clocked at 2400 MT/s with a peak bandwidth of 19.2 GB/s, as in
// Section III-A.
func ntcDDR4() ddr4 {
	return ddr4{DataRate: 2400, BusBytes: 8, BaseLatency: 75e-9, LineBytes: 64}
}

// PeakBandwidth returns the theoretical peak bandwidth in bytes/s
// (DataRate MT/s × bus width).
func (c ddr4) PeakBandwidth() float64 { return c.DataRate * 1e6 * c.BusBytes }

// LineAccessTime returns the time to fetch one cache line from an
// unloaded channel: the base latency plus the line's transfer at peak
// rate.
func (c ddr4) LineAccessTime() float64 { return c.BaseLatency + c.LineBytes/c.PeakBandwidth() }

// microModel is the event-granular cross-check of the analytical
// path: it drives a synthetic memory reference stream through real
// L1/LLC cache simulators and the DDR4 channel, and derives the same
// observables from first principles (base CPI + measured miss counts
// × memory latency).
type microModel struct {
	// L1D and LLC are the cache configurations (the proposed NTC
	// server: 32 KB L1D, 16 MB LLC shared — the per-core share is
	// LLC.Size/Cores when all cores are busy).
	L1D, LLC cacheConfig

	// Mem is the DRAM channel.
	Mem ddr4

	// CPIBase is the no-miss pipeline CPI (1.12 for the A57 fit; an
	// in-order pipeline would carry a higher value).
	CPIBase float64

	// MemOpsPerKiloInstr is how many of every 1000 instructions
	// reference memory.
	MemOpsPerKiloInstr float64
}

// ntcMicroModel returns the micro model configured as the proposed
// NTC server (Section III-A): 32 KB 8-way L1D, 16 MB 16-way LLC with
// 64 B lines, DDR4-2400.
func ntcMicroModel() *microModel {
	return &microModel{
		L1D:                cacheConfig{Size: units.MiB(0.03125), LineSize: 64, Ways: 8}, // 32 KB
		LLC:                cacheConfig{Size: units.MiB(16), LineSize: 64, Ways: 16},
		Mem:                ntcDDR4(),
		CPIBase:            1.12,
		MemOpsPerKiloInstr: 300,
	}
}

// microResult carries the event-granular run's outputs.
type microResult struct {
	Instructions uint64
	L1Stats      cacheStats
	LLCStats     cacheStats
	Time         float64
	MPKI         float64
	WFMFraction  float64
}

// Run simulates `instructions` instructions of a synthetic job shaped
// like spec at frequency f. The reference stream mixes hot-set reuse
// (cache-friendly) with a streaming sweep of the full footprint, with
// the streaming share set so the measured LLC MPKI approaches the
// spec's calibrated MPKI when the hot set fits in the LLC share.
//
// seed makes the stream deterministic; identical inputs produce
// identical results.
func (m *microModel) Run(spec workload.Spec, f units.Frequency, instructions uint64, seed uint64) (microResult, error) {
	l1, err := newLRUCache(m.L1D)
	if err != nil {
		return microResult{}, err
	}
	llc, err := newLRUCache(m.LLC)
	if err != nil {
		return microResult{}, err
	}

	// Derive the streaming share from the spec: streaming references
	// miss every CacheLineBytes/8 accesses (sequential 8 B words), so
	// to achieve the target MPKI we need approximately
	//   MPKI = streamShare * MemOpsPerKiloInstr / (LineBytes/8)
	lineWords := float64(m.L1D.LineSize) / 8
	streamShare := spec.MPKI * lineWords / m.MemOpsPerKiloInstr
	if streamShare > 1 {
		streamShare = 1
	}

	rng := seed*2862933555777941757 + 3037000493
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}

	hotLines := uint64(float64(spec.HotSet)) / 64
	if hotLines == 0 {
		hotLines = 1
	}
	footprintBytes := uint64(float64(spec.MemFootprint))
	var streamPos uint64

	// Warm-up: install the hot set so the measured phase reports
	// steady-state miss rates, then clear the counters (contents stay).
	for i := uint64(0); i < hotLines; i++ {
		addr := footprintBytes + i*64
		if !l1.Access(addr, false) {
			llc.Access(addr, false)
		}
	}
	l1.ResetStats()
	llc.ResetStats()

	memOps := instructions * uint64(m.MemOpsPerKiloInstr) / 1000
	var l1Misses, llcMisses, llcAccesses uint64
	streamThreshold := uint64(streamShare * float64(^uint64(0)))

	for i := uint64(0); i < memOps; i++ {
		var addr uint64
		write := next()%100 < uint64(spec.WriteFraction*100)
		if next() < streamThreshold {
			// Streaming sweep: sequential 8 B words over the footprint.
			addr = streamPos % footprintBytes
			streamPos += 8
		} else {
			// Hot-set reuse: uniform over the hot working set.
			addr = (next() % hotLines) * 64
			// Place the hot set after the streaming region so the two
			// do not alias.
			addr += footprintBytes
		}
		if !l1.Access(addr, write) {
			l1Misses++
			llcAccesses++
			if !llc.Access(addr, write) {
				llcMisses++
			}
		}
	}

	// Time: pipeline time + LLC hit stalls + DRAM stalls. The OoO
	// window hides most LLC-hit latency (90% overlap, consistent with
	// the calibrated path folding those stalls into C_exe); DRAM
	// misses expose the unloaded channel's line fetch (a single-core
	// run).
	const (
		llcHitLatency = 12e-9 // ~30 cycles at 2.5 GHz
		llcOverlap    = 0.90  // fraction of LLC-hit stalls the OoO core hides
	)
	pipeline := float64(instructions) * m.CPIBase / float64(f)
	memTime := float64(llcMisses) * m.Mem.LineAccessTime()
	llcTime := float64(llcAccesses-llcMisses) * llcHitLatency * (1 - llcOverlap)
	total := pipeline + memTime + llcTime

	wfm := 0.0
	if total > 0 {
		wfm = (memTime + llcTime) / total
	}
	mpki := 0.0
	if instructions > 0 {
		mpki = float64(llcMisses) * 1000 / float64(instructions)
	}
	return microResult{
		Instructions: instructions,
		L1Stats:      l1.Stats(),
		LLCStats:     llc.Stats(),
		Time:         total,
		MPKI:         mpki,
		WFMFraction:  wfm,
	}, nil
}

func smallCacheConfig() cacheConfig {
	return cacheConfig{Size: 4096, LineSize: 64, Ways: 4} // 16 sets
}

func TestConfigValidate(t *testing.T) {
	if err := smallCacheConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []cacheConfig{
		{Size: 0, LineSize: 64, Ways: 4},
		{Size: 4096, LineSize: 0, Ways: 4},
		{Size: 4096, LineSize: 64, Ways: 0},
		{Size: 4000, LineSize: 64, Ways: 4},     // not line-multiple
		{Size: 4096, LineSize: 64, Ways: 5},     // lines not multiple of ways
		{Size: 4096 * 3, LineSize: 64, Ways: 4}, // 48 sets: not a power of two
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestSets(t *testing.T) {
	if got := smallCacheConfig().Sets(); got != 16 {
		t.Errorf("Sets = %d, want 16", got)
	}
	// The NTC LLC: 16 MB, 64 B lines, 16 ways -> 16384 sets.
	llc := cacheConfig{Size: units.MiB(16), LineSize: 64, Ways: 16}
	if got := llc.Sets(); got != 16384 {
		t.Errorf("LLC sets = %d, want 16384", got)
	}
}

func TestColdMissesThenHits(t *testing.T) {
	c, err := newLRUCache(smallCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	// First touch of each line misses; second touch hits.
	for addr := uint64(0); addr < 4096; addr += 64 {
		if c.Access(addr, false) {
			t.Errorf("cold access to %#x hit", addr)
		}
	}
	for addr := uint64(0); addr < 4096; addr += 64 {
		if !c.Access(addr, false) {
			t.Errorf("warm access to %#x missed", addr)
		}
	}
	s := c.Stats()
	if s.Misses != 64 || s.Hits != 64 {
		t.Errorf("stats = %+v, want 64 misses / 64 hits", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c, err := newLRUCache(smallCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 ways: fill one set with 4 lines, touch the first again (now
	// MRU), then insert a 5th line mapping to the same set — it must
	// evict the least recently used (the 2nd line).
	setStride := uint64(16 * 64) // lines mapping to set 0
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, false)
	}
	c.Access(0, false) // line 0 becomes MRU
	c.Access(4*setStride, false)
	if !c.Access(0, false) {
		t.Error("line 0 was evicted despite being MRU")
	}
	if c.Access(1*setStride, false) {
		t.Error("line 1 (LRU) should have been evicted")
	}
}

func TestWritebackCounting(t *testing.T) {
	c, err := newLRUCache(smallCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	setStride := uint64(16 * 64)
	// Write to 4 lines of one set (all dirty), then stream 4 more
	// through the same set: 4 dirty evictions.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*setStride, true)
	}
	for i := uint64(4); i < 8; i++ {
		c.Access(i*setStride, false)
	}
	if wb := c.Stats().Writebacks; wb != 4 {
		t.Errorf("writebacks = %d, want 4", wb)
	}
}

func TestStatsConsistencyProperty(t *testing.T) {
	// Hits + Misses == Accesses for any access stream.
	prop := func(seed int64) bool {
		c, err := newLRUCache(smallCacheConfig())
		if err != nil {
			return false
		}
		state := uint64(seed)*6364136223846793005 + 1442695040888963407
		for i := 0; i < 2000; i++ {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			c.Access(state%65536, state%3 == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Accesses == 2000
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestCacheSimMatchesWorkingSetIntuition(t *testing.T) {
	// A loop over a working set that fits has ~0 steady-state miss
	// rate; one that exceeds the cache thrashes (LRU + sequential
	// sweep = ~100% misses).
	missRate := func(loopBytes uint64) float64 {
		c, err := newLRUCache(smallCacheConfig()) // 4 KB cache
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 10; pass++ {
			for a := uint64(0); a < loopBytes; a += 64 {
				c.Access(a, false)
			}
		}
		s := c.Stats()
		return float64(s.Misses) / float64(s.Accesses)
	}
	if mr := missRate(2048); mr > 0.15 {
		t.Errorf("fitting loop miss rate = %.2f, want ~0.03", mr)
	}
	// 8 KB loop (2x the cache), 10 passes: sequential LRU thrash.
	if mr := missRate(8192); mr < 0.9 {
		t.Errorf("thrashing loop miss rate = %.2f, want ~1.0", mr)
	}
}

func TestLineSizeMustBePowerOfTwo(t *testing.T) {
	// 48 B lines: rejected by newLRUCache even though Validate's
	// divisibility checks might pass.
	_, err := newLRUCache(cacheConfig{Size: 4096 * 3 / 4, LineSize: 48, Ways: 4})
	if err == nil {
		t.Error("48-byte line accepted")
	}
}

func TestDDR4PeakBandwidth(t *testing.T) {
	// Section III-A: DDR4 at 2400 MHz with a peak of 19.2 GB/s.
	if got := ntcDDR4().PeakBandwidth(); math.Abs(got-19.2e9) > 1 {
		t.Errorf("peak = %v, want 19.2e9", got)
	}
}

func TestAccessTime(t *testing.T) {
	// One line unloaded: base latency + line transfer time.
	cfg := ntcDDR4()
	want := cfg.BaseLatency + 64/cfg.PeakBandwidth()
	if got := cfg.LineAccessTime(); math.Abs(got-want) > 1e-15 {
		t.Errorf("1 line = %v, want %v", got, want)
	}
}

func TestMicroModelDeterministic(t *testing.T) {
	m := ntcMicroModel()
	spec := workload.Get(workload.MidMem)
	a, err := m.Run(spec, units.GHz(2), 200_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(spec, units.GHz(2), 200_000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("identical runs differ: %+v vs %+v", a, b)
	}
}

func TestMicroModelMPKIOrdering(t *testing.T) {
	// The synthetic streams must reproduce the class ordering: more
	// memory-intensive classes measure higher LLC MPKI.
	m := ntcMicroModel()
	var mpki [3]float64
	for i, c := range workload.Classes() {
		r, err := m.Run(workload.Get(c), units.GHz(2), 500_000, 42)
		if err != nil {
			t.Fatal(err)
		}
		mpki[i] = r.MPKI
	}
	if !(mpki[0] < mpki[1] && mpki[1] < mpki[2]) {
		t.Errorf("MPKI ordering violated: %v", mpki)
	}
}

func TestMicroModelMPKIApproximatesCalibration(t *testing.T) {
	// The stream synthesis is tuned so measured MPKI lands within a
	// factor ~2 of the calibrated MPKI — close enough to cross-check
	// the analytical model's shape.
	m := ntcMicroModel()
	for _, c := range workload.Classes() {
		spec := workload.Get(c)
		r, err := m.Run(spec, units.GHz(2), 1_000_000, 11)
		if err != nil {
			t.Fatal(err)
		}
		if r.MPKI < spec.MPKI/2.5 || r.MPKI > spec.MPKI*2.5 {
			t.Errorf("%v: micro MPKI %.2f vs calibrated %.2f (want within 2.5x)", c, r.MPKI, spec.MPKI)
		}
	}
}

func TestMicroModelTimeDecreasesWithFrequency(t *testing.T) {
	m := ntcMicroModel()
	spec := workload.Get(workload.LowMem)
	slow, err := m.Run(spec, units.GHz(0.5), 200_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := m.Run(spec, units.GHz(2.5), 200_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Time >= slow.Time {
		t.Errorf("time at 2.5 GHz (%.3g) not below 0.5 GHz (%.3g)", fast.Time, slow.Time)
	}
}

func TestMicroModelWFMRisesWithMemoryIntensity(t *testing.T) {
	m := ntcMicroModel()
	low, err := m.Run(workload.Get(workload.LowMem), units.GHz(2), 300_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	high, err := m.Run(workload.Get(workload.HighMem), units.GHz(2), 300_000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if high.WFMFraction <= low.WFMFraction {
		t.Errorf("high-mem WFM %.3f not above low-mem %.3f", high.WFMFraction, low.WFMFraction)
	}
}

func TestMicroModelStatsConsistent(t *testing.T) {
	m := ntcMicroModel()
	r, err := m.Run(workload.Get(workload.MidMem), units.GHz(2), 400_000, 9)
	if err != nil {
		t.Fatal(err)
	}
	l1 := r.L1Stats
	llc := r.LLCStats
	if l1.Hits+l1.Misses != l1.Accesses {
		t.Errorf("L1 stats inconsistent: %+v", l1)
	}
	if llc.Accesses != l1.Misses {
		t.Errorf("LLC accesses %d != L1 misses %d", llc.Accesses, l1.Misses)
	}
	if r.WFMFraction < 0 || r.WFMFraction > 1 {
		t.Errorf("WFM fraction %v outside [0,1]", r.WFMFraction)
	}
}
