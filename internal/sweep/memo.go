package sweep

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/alloc"
	"repro/internal/power"
	"repro/internal/units"
)

// The allocation memo: allocate once per distinct input.
//
// Every policy newPolicy builds is a pure function of its construction
// (policy name and server model) and of each call's demands and
// ServerSpec; alloc.Policy forbids retaining or modifying the input,
// and EPACT caches only values derived from its model. So equal calls
// return equal assignments, whichever row, epoch, DC or goroutine
// makes them: pricing siblings, rows whose population sits in DCs with
// the same server model, rebalance specs sharing a prefix of epochs.
// fleetConfig wraps the policy factory with the Runner's memo, so
// Exec, Run, dist workers and the live service all share through it;
// everything after Allocate still runs per row.
//
// The memo also takes the slot windows that the steppers of Exec's
// rows offer (dcsim.LookaheadPolicy), and computes those windows'
// later slots into the memo ahead of the steppers (lookahead.go): on
// Run's workers with no row left, and on any stepper whose call finds
// its input pending under another goroutine, until that input is
// filled. A stepper's call then hits, or waits on, the entry a helper
// made; since an entry answers only its exact input, lookahead moves
// work between cores and changes no result.

// memoBudget bounds the bytes of a memo's finished entries; past it
// the oldest go first. It is enough for pricing siblings several rows
// apart to meet: policy-grid's 1,008 distinct 600-VM inputs take about
// 1.6 MB, and fleet-dist's 336 about 0.5 MB. A Runner may live as long
// as a daemon (ntc-serve), where every MB held raises the heap's
// garbage-collection goal, so the budget is no larger. Lookahead
// helpers' unused entries sit beside it, in at most half as many bytes
// again, and only while the row whose window they serve runs.
const memoBudget = 2 << 20

// entryOverhead is what an entry costs beyond its indices: the entry
// itself, its map slot and its FIFO slot, as measured on go1.24.
const entryOverhead = 320

// digest is the AES-GMAC tag of an input's encoding under the memo's
// random key. GMAC is a keyed universal hash: two distinct inputs of
// at most L 16-byte blocks collide with probability at most L/2^128
// (about 2^-115 for a 600-VM slot). Tags never leave the process, so
// the fixed nonce reveals nothing.
type digest [16]byte

var memoNonce [12]byte

// allocMemo is a bounded, singleflight map from allocation inputs to
// compact placements. It is safe for concurrent use.
type allocMemo struct {
	gcm    cipher.AEAD
	budget int

	// bufs are scratch buffers free for the next key encoding or
	// compact check, under their own lock: at most one per goroutine
	// ever using one at once. A free list rather than a sync.Pool, which
	// the race detector empties at random, so a hit never allocates.
	bufMu sync.Mutex
	bufs  [][]byte

	mu      sync.Mutex
	entries map[digest]*allocEntry
	fifo    []digest // finished entries, oldest first
	bytes   int      // stored bytes of the entries in fifo

	// Lookahead state (lookahead.go), guarded by mu. Helpers' entries
	// stay out of fifo until a stepper first uses them, so eviction
	// never drops one before its use; aheadBytes counts them.
	stopped    bool // Run has finished every row
	windows    []*window
	aheadBytes int
	wake       sync.Cond // on mu: a window opened, ahead bytes freed, a pack ended, or stop
	helpers    []*helper // waiters' helpers free for the next waiter

	hits, aheadComputed, aheadUsed atomic.Int64
}

// allocEntry is one input's allocation. done is closed once the entry
// is filled (ok) or abandoned (the call failed or its Assignment cannot
// be stored); p is immutable after that.
type allocEntry struct {
	done chan struct{}
	ok   bool
	p    placement

	// win is the window a helper computed the entry for, until a
	// stepper first uses it; size is the bytes it holds in aheadBytes.
	// Both are guarded by the memo's mu.
	win  *window
	size int
}

func newAllocMemo(budget int) *allocMemo {
	key := make([]byte, 16)
	rand.Read(key)
	block, err := aes.NewCipher(key)
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		panic(err)
	}
	m := &allocMemo{gcm: gcm, budget: budget, entries: map[digest]*allocEntry{}}
	m.wake.L = &m.mu
	return m
}

// wrap returns pol answering through the memo. name and model are what
// newPolicy built pol from; a nil memo, or a model the canonical
// encoding cannot cover, returns pol unchanged. row, when non-nil,
// collects the windows the policy's stepper offers. keys caches the
// key prefix across the wraps of one row.
func (m *allocMemo) wrap(name string, model power.Model, pol alloc.Policy, row *aheadRow, keys *keyPrefixes) alloc.Policy {
	if m == nil {
		return pol
	}
	prefix := keys.get(name, model)
	if prefix == nil {
		return pol
	}
	return &memoPolicy{Policy: pol, memo: m, prefix: prefix, name: name, model: model, row: row}
}

// keyPrefixes holds the start of every memo key of the policies of one
// row, which all share a name: the name and the server model, encoded.
// A fleet row builds a policy per DC per epoch from the same few
// models, and each encoding walks a model by reflection, so each model
// is encoded once. It lives in the row's policy factory, not in the
// Runner, so a long-lived Runner (ntc-serve) keeps no model alive.
// Models are pointers, compared by identity; the lock covers the forks
// of a live session, which share their parent's factory.
type keyPrefixes struct {
	mu     sync.Mutex
	models []power.Model
	keys   [][]byte
}

func (c *keyPrefixes) get(name string, model power.Model) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, m := range c.models {
		if m == model {
			return c.keys[i]
		}
	}
	// nil marks a model the canonical encoding cannot cover.
	key, ok := appendCanonical(appendString(nil, name), reflect.ValueOf(&model).Elem(), 0)
	if !ok {
		key = nil
	}
	c.models = append(c.models, model)
	c.keys = append(c.keys, key)
	return key
}

type memoPolicy struct {
	alloc.Policy
	memo   *allocMemo
	prefix []byte // the policy name and server model, encoded

	// name and model rebuild the policy for a helper; row is the Exec
	// that built it (nil outside Exec).
	name  string
	model power.Model
	row   *aheadRow
}

// Allocate implements alloc.Policy.
func (p *memoPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	return alloc.Fresh(p, vms, spec)
}

// AllocateInto implements alloc.Filler. A miss fills dst through the
// wrapped policy and stores its compact placement; a hit unpacks the
// stored placement into dst, which then holds what the slot replay
// and transition pricing read, with empty plan patterns.
func (p *memoPolicy) AllocateInto(dst *alloc.Assignment, vms []alloc.VMDemand, spec alloc.ServerSpec) error {
	m := p.memo
	key := m.key(p.prefix, vms, spec)
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &allocEntry{done: make(chan struct{})}
		m.entries[key] = e
	}
	m.mu.Unlock()
	if !found {
		return m.fill(key, e, p.Policy, dst, vms, spec)
	}
	p.await(e)
	if !e.ok {
		// Never serve a failure: run the call again, which returns
		// the policy's own result or error.
		return alloc.Into(p.Policy, dst, vms, spec)
	}
	m.used(key, e)
	e.p.into(dst, p.Name())
	return nil
}

// fill runs the call e stands for into dst and publishes its
// placement, or drops e when the call fails. The deferred release runs
// even if the policy panics (net/http recovers a handler's panic), so
// waiters never hang. Only finished entries are in fifo, so eviction
// never touches one still being computed.
func (m *allocMemo) fill(key digest, e *allocEntry, pol alloc.Policy, dst *alloc.Assignment, vms []alloc.VMDemand, spec alloc.ServerSpec) error {
	defer func() {
		m.mu.Lock()
		if e.ok {
			m.storeLocked(key, e)
		} else {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		close(e.done)
	}()
	err := alloc.Into(pol, dst, vms, spec)
	if err == nil {
		e.p, e.ok = m.compact(dst)
	}
	return err
}

// storeLocked appends the finished entry e to fifo and evicts the
// oldest entries past the budget. m.mu must be held.
func (m *allocMemo) storeLocked(key digest, e *allocEntry) {
	m.fifo = append(m.fifo, key)
	m.bytes += e.p.size()
	for m.bytes > m.budget {
		old := m.fifo[0]
		m.fifo = m.fifo[1:]
		m.bytes -= m.entries[old].p.size()
		delete(m.entries, old)
	}
}

// key digests one call's input: the policy prefix, the ServerSpec and
// every demand's ID and sample bits, each list length-prefixed.
func (m *allocMemo) key(prefix []byte, vms []alloc.VMDemand, spec alloc.ServerSpec) digest {
	n := len(prefix) + 5*8
	for i := range vms {
		n += 3*8 + 8*(len(vms[i].CPU)+len(vms[i].Mem))
	}
	b := m.takeBuf(n + len(digest{}))
	b = append(b[:0], prefix...)
	b = binary.LittleEndian.AppendUint64(b, uint64(spec.Cores))
	b = appendFloats(b, spec.MemContainers, float64(spec.FMax), float64(spec.FMin))
	b = binary.LittleEndian.AppendUint64(b, uint64(len(vms)))
	for i := range vms {
		v := &vms[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(v.ID))
		b = binary.LittleEndian.AppendUint64(b, uint64(len(v.CPU)))
		b = appendFloats(b, v.CPU...)
		b = binary.LittleEndian.AppendUint64(b, uint64(len(v.Mem)))
		b = appendFloats(b, v.Mem...)
	}
	// The tag is sealed into the spare capacity after the encoding
	// (the encoding is only authenticated, so the two never overlap):
	// sealing into a local array would move it to the heap.
	var d digest
	copy(d[:], m.gcm.Seal(b[len(b):], memoNonce[:], nil, b))
	m.putBuf(b)
	return d
}

// takeBuf returns a free scratch buffer of at least n bytes' capacity.
func (m *allocMemo) takeBuf(n int) []byte {
	var b []byte
	m.bufMu.Lock()
	if k := len(m.bufs); k > 0 {
		b = m.bufs[k-1]
		m.bufs = m.bufs[:k-1]
	}
	m.bufMu.Unlock()
	if cap(b) < n {
		b = make([]byte, 0, n)
	}
	return b
}

// putBuf frees b for the next takeBuf.
func (m *allocMemo) putBuf(b []byte) {
	m.bufMu.Lock()
	m.bufs = append(m.bufs, b)
	m.bufMu.Unlock()
}

func appendFloats(b []byte, fs ...float64) []byte {
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint64(b, uint64(len(s))), s...)
}

// appendCanonical appends an encoding of v that names dynamic types,
// follows pointers and reads unexported fields, so equal encodings
// mean equal values all the way down. It reports false for what it
// cannot encode: maps, funcs, channels, or nesting deep enough to be a
// cycle.
func appendCanonical(b []byte, v reflect.Value, depth int) ([]byte, bool) {
	if depth > 16 {
		return b, false
	}
	ok := true
	switch v.Kind() {
	case reflect.Bool:
		b = append(b, 0)
		if v.Bool() {
			b[len(b)-1] = 1
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		b = binary.LittleEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		b = appendFloats(b, v.Float())
	case reflect.String:
		b = appendString(b, v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			return append(b, 0), true
		}
		b = appendString(append(b, 1), v.Elem().Type().String())
		return appendCanonical(b, v.Elem(), depth+1)
	case reflect.Struct:
		for i := 0; i < v.NumField() && ok; i++ {
			b, ok = appendCanonical(b, v.Field(i), depth+1)
		}
	case reflect.Slice, reflect.Array:
		b = binary.LittleEndian.AppendUint64(b, uint64(v.Len()))
		for i := 0; i < v.Len() && ok; i++ {
			b, ok = appendCanonical(b, v.Index(i), depth+1)
		}
	default:
		ok = false
	}
	return b, ok
}

// placement is an Assignment reduced to what the slot replay and
// transition pricing read, without the predicted plan patterns. Its
// indices are the servers' VM lists back to back, then each server's
// end offset; VMServer is derived from the lists. Each list keeps its
// order: the replay sums a server's samples in it, and float addition
// is not associative.
type placement struct {
	idx16 []uint16 // the indices when the DC has fewer than 65,536 VMs
	idx32 []int32  // the indices otherwise
	vms   int

	cpuCap, memCap float64
	plannedFreq    units.Frequency
	fixedFreq      bool
	epactCase      int
}

// compact stores a. It reports false unless the server lists hold
// every VM exactly once, where VMServer puts it: the Policy contract,
// which the rebuild relies on. The seen set is a scratch buffer, so a
// stored placement allocates its indices alone.
func (m *allocMemo) compact(a *alloc.Assignment) (placement, bool) {
	n := len(a.VMServer)
	seen := m.takeBuf(n)[:n]
	defer m.putBuf(seen)
	clear(seen)
	for i, srv := range a.Servers {
		for _, v := range srv.VMs {
			if v < 0 || v >= n || seen[v] != 0 || a.VMServer[v] != i {
				return placement{}, false
			}
			seen[v] = 1
		}
	}
	if slices.Contains(seen, 0) {
		return placement{}, false
	}
	p := placement{vms: n, cpuCap: a.CPUCapPoints, memCap: a.MemCapPoints,
		plannedFreq: a.PlannedFreq, fixedFreq: a.FixedFreq, epactCase: a.EPACTCase}
	if n < 1<<16 {
		p.idx16 = pack[uint16](a, n)
	} else {
		p.idx32 = pack[int32](a, n)
	}
	return p, true
}

func (p *placement) size() int { return entryOverhead + 2*len(p.idx16) + 4*len(p.idx32) }

// into rebuilds the placement in a, reusing a's buffers: every field
// is set, and the plan patterns are empty.
func (p *placement) into(a *alloc.Assignment, policy string) {
	a.Reset(policy, p.vms)
	a.CPUCapPoints, a.MemCapPoints = p.cpuCap, p.memCap
	a.PlannedFreq, a.FixedFreq, a.EPACTCase = p.plannedFreq, p.fixedFreq, p.epactCase
	if p.idx16 != nil {
		unpack(a, p.idx16, p.vms)
	} else {
		unpack(a, p.idx32, p.vms)
	}
}

func pack[T uint16 | int32](a *alloc.Assignment, n int) []T {
	idx := make([]T, 0, n+len(a.Servers))
	for _, srv := range a.Servers {
		for _, v := range srv.VMs {
			idx = append(idx, T(v))
		}
	}
	end := 0
	for _, srv := range a.Servers {
		end += len(srv.VMs)
		idx = append(idx, T(end))
	}
	return idx
}

// unpack appends the servers idx lists to a, which Reset has sized
// for n VMs.
func unpack[T uint16 | int32](a *alloc.Assignment, idx []T, n int) {
	start := 0
	for i, e := range idx[n:] {
		srv := a.AddServer(0)
		srv.VMs = slices.Grow(srv.VMs, int(e)-start)
		for _, v := range idx[start:e] {
			srv.VMs = append(srv.VMs, int(v))
			a.VMServer[v] = i
		}
		start = int(e)
	}
}
