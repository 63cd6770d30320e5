package sweep

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"math"
	"reflect"
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
// In Run, the memo also takes the slot windows its policies' steppers
// offer (dcsim.LookaheadPolicy), and workers with no row left compute
// those windows' later slots into it ahead of the steppers
// (lookahead.go). A stepper's call then hits, or waits on, the entry a
// helper made; since an entry answers only its exact input, lookahead
// moves work between cores and changes no result.

// The memo keeps the bytes of its finished entries within a budget;
// past it the oldest go first. A Runner from NewRunner may live as long
// as a daemon (ntc-serve), where every MB held raises the heap's
// garbage-collection goal, so it keeps 1 MB: enough for fleet-dist's
// 336 distinct 600-VM inputs. Run's Runner lives for one sweep and
// keeps enough for pricing siblings several rows apart to meet:
// policy-grid's 1,008 distinct 600-VM inputs take about 1.6 MB.
// Lookahead helpers' unused entries sit beside the budget, in at most
// half as many bytes again.
const (
	memoBudget    = 1 << 20
	runMemoBudget = 2 << 20
)

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
	bufs   sync.Pool // *[]byte key scratch, shared by every policy
	budget int

	mu      sync.Mutex
	entries map[digest]*allocEntry
	fifo    []digest // finished entries, oldest first
	bytes   int      // stored bytes of the entries in fifo

	// Lookahead state (lookahead.go), guarded by mu. Helpers' entries
	// stay out of fifo until a stepper first uses them, so eviction
	// never drops one before its use; aheadBytes counts them.
	ahead      bool // whether offered windows are taken (Run only)
	stopped    bool // Run has finished every row
	windows    []*window
	aheadBytes int
	wake       sync.Cond // on mu: a window opened, ahead bytes freed, or stop

	hits, aheadComputed, aheadUsed atomic.Int64
}

// allocEntry is one input's allocation. done is released once the
// entry is filled (ok) or abandoned (the call failed or its Assignment
// cannot be stored); p is immutable after that.
type allocEntry struct {
	done sync.WaitGroup
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
// collects the windows the policy's stepper offers.
func (m *allocMemo) wrap(name string, model power.Model, pol alloc.Policy, row *aheadRow) alloc.Policy {
	if m == nil {
		return pol
	}
	prefix, ok := appendCanonical(appendString(nil, name), reflect.ValueOf(&model).Elem(), 0)
	if !ok {
		return pol
	}
	return &memoPolicy{Policy: pol, memo: m, prefix: prefix, name: name, model: model, row: row}
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

func (p *memoPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	m := p.memo
	key := m.key(p.prefix, vms, spec)
	m.mu.Lock()
	e, found := m.entries[key]
	if !found {
		e = &allocEntry{}
		e.done.Add(1)
		m.entries[key] = e
	}
	m.mu.Unlock()
	if !found {
		return m.fill(key, e, p.Policy, vms, spec)
	}
	e.done.Wait()
	if !e.ok {
		// Never serve a failure: run the call again, which returns
		// the policy's own result or error.
		return p.Policy.Allocate(vms, spec)
	}
	m.used(key, e)
	return e.p.assignment(p.Name()), nil
}

// fill runs the call e stands for and publishes its placement, or
// drops e when the call fails. The deferred release runs even if the
// policy panics (net/http recovers a handler's panic), so waiters never
// hang. Only finished entries are in fifo, so eviction never touches
// one still being computed.
func (m *allocMemo) fill(key digest, e *allocEntry, pol alloc.Policy, vms []alloc.VMDemand, spec alloc.ServerSpec) (a *alloc.Assignment, err error) {
	defer func() {
		m.mu.Lock()
		if e.ok {
			m.storeLocked(key, e)
		} else {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		e.done.Done()
	}()
	a, err = pol.Allocate(vms, spec)
	if err == nil {
		e.p, e.ok = compact(a)
	}
	return a, err
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
	bp, _ := m.bufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	if cap(*bp) < n {
		*bp = make([]byte, 0, n)
	}
	b := append((*bp)[:0], prefix...)
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
	var d digest
	m.gcm.Seal(d[:0], memoNonce[:], nil, b)
	*bp = b
	m.bufs.Put(bp)
	return d
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
// which the rebuild relies on.
func compact(a *alloc.Assignment) (placement, bool) {
	n := len(a.VMServer)
	seen := make([]bool, n)
	for i, srv := range a.Servers {
		for _, v := range srv.VMs {
			if v < 0 || v >= n || seen[v] || a.VMServer[v] != i {
				return placement{}, false
			}
			seen[v] = true
		}
	}
	for _, s := range seen {
		if !s {
			return placement{}, false
		}
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

// assignment rebuilds a fresh Assignment, which the caller owns.
func (p *placement) assignment(policy string) *alloc.Assignment {
	a := &alloc.Assignment{Policy: policy, CPUCapPoints: p.cpuCap, MemCapPoints: p.memCap,
		PlannedFreq: p.plannedFreq, FixedFreq: p.fixedFreq, EPACTCase: p.epactCase}
	if p.idx16 != nil {
		unpack(a, p.idx16, p.vms)
	} else {
		unpack(a, p.idx32, p.vms)
	}
	return a
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

func unpack[T uint16 | int32](a *alloc.Assignment, idx []T, n int) {
	ints := make([]int, 2*n) // the VM lists, then VMServer
	for i, v := range idx[:n] {
		ints[i] = int(v)
	}
	ends := idx[n:]
	plans := make([]alloc.ServerPlan, len(ends))
	a.Servers = make([]*alloc.ServerPlan, len(ends))
	a.VMServer = ints[n:]
	start := 0
	for i, e := range ends {
		end := int(e)
		plans[i].VMs = ints[start:end:end]
		for _, v := range plans[i].VMs {
			a.VMServer[v] = i
		}
		a.Servers[i] = &plans[i]
		start = end
	}
}
