package sweep

import (
	"bytes"
	"slices"

	"repro/internal/alloc"
	"repro/internal/dcsim"
)

// Allocating ahead on idle workers (Run only).
//
// Every planning input of a dcsim window is known when it opens, so a
// stepper offers its window [First, Last) to its policy
// (dcsim.LookaheadPolicy). In Run the memo keeps the open windows, and
// a worker with no row left becomes a helper: it claims the latest
// unclaimed slot of the oldest open window, packs that slot's demands
// as the stepper will, and computes the allocation into the memo under
// the key the stepper's own call derives. That call then hits the
// entry or waits on it; its first use counts as LoadStats.LookaheadUsed
// rather than as a shared placement.
//
// A helper claims slots from a window's far end backwards and stops
// claiming it once it meets the stepper: the slot's input already has
// an entry, or the stepper has reached the slot. It claims nothing
// while its unused entries would take more than half the memo budget,
// and those entries stay out of the FIFO until used, so eviction never
// drops a helper's work before its use. A window closes when its
// stepper finishes or fails, or when the row that built it ends
// (aheadRow); the entries no stepper used go with it. Helpers rebuild
// the policy with newPolicy, since policies need not be safe for
// concurrent use.

// window is one offered dcsim window; its fields are guarded by the
// memo's mu.
type window struct {
	w      *dcsim.Window
	pol    *memoPolicy // the offering policy: name, model and key prefix
	est    int         // bytes one of its entries may hold
	cursor int         // the next slot to claim, counting down
	closed bool
	keys   []digest // the entries helpers made for it
}

// aheadRow collects the windows one Exec's steppers offer, so the end
// of the row closes those a failed fleet step left open.
type aheadRow struct{ wins []*window }

// Offer implements dcsim.LookaheadPolicy: in Run, the window joins the
// open windows helpers claim slots from.
func (p *memoPolicy) Offer(w *dcsim.Window) {
	if p.row == nil {
		return
	}
	m := p.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.ahead || m.stopped {
		return
	}
	elem := 2 // placement indices: uint16 below 65,536 VMs, else int32
	if w.VMs() >= 1<<16 {
		elem = 4
	}
	// A placement holds one index per VM and one per server: est
	// bounds it while a policy opens at most one server per VM, and
	// finishAhead corrects each entry to its real size.
	win := &window{w: w, pol: p, est: entryOverhead + 2*elem*w.VMs(), cursor: w.Last - 1}
	m.windows = append(m.windows, win)
	p.row.wins = append(p.row.wins, win)
	m.wake.Broadcast()
}

// Withdraw implements dcsim.LookaheadPolicy.
func (p *memoPolicy) Withdraw(w *dcsim.Window) {
	m := p.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, win := range m.windows {
		if win.w == w {
			m.closeLocked(win)
			return
		}
	}
}

// endRow closes the windows of row still open.
func (m *allocMemo) endRow(row *aheadRow) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, win := range row.wins {
		m.closeLocked(win)
	}
}

// closeLocked removes win from the open windows and drops the entries
// helpers made for it that no stepper used. m.mu must be held.
func (m *allocMemo) closeLocked(win *window) {
	if win.closed {
		return
	}
	win.closed = true
	m.windows = slices.DeleteFunc(m.windows, func(o *window) bool { return o == win })
	for _, k := range win.keys {
		if e := m.entries[k]; e != nil && e.win == win {
			delete(m.entries, k)
			m.aheadBytes -= e.size
			e.win = nil
		}
	}
	win.keys = nil
	m.wake.Broadcast()
}

// stopAhead ends lookahead: helpers return and no window opens again.
func (m *allocMemo) stopAhead() {
	m.mu.Lock()
	m.stopped = true
	m.wake.Broadcast()
	m.mu.Unlock()
}

// used counts a stepper's use of the finished entry e: a shared
// placement, or the first use of a helper's entry, which then joins
// the FIFO like any entry.
func (m *allocMemo) used(key digest, e *allocEntry) {
	if !m.ahead {
		m.hits.Add(1)
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e.win == nil {
		m.hits.Add(1)
		return
	}
	e.win = nil
	m.aheadBytes -= e.size
	m.aheadUsed.Add(1)
	m.storeLocked(key, e)
	m.wake.Broadcast()
}

// help computes open windows' slots ahead of their steppers until
// stopAhead. It reuses one demand buffer, and one policy while the
// windows it serves share a policy name and server model.
func (m *allocMemo) help() {
	var (
		dem    dcsim.SlotDemands
		pol    alloc.Policy
		prefix []byte
	)
	for {
		win, s, ok := m.claim()
		if !ok {
			return
		}
		vms := win.w.Demands(s, &dem)
		key := m.key(win.pol.prefix, vms, win.w.Spec)
		e := m.reserve(win, s, key)
		if e == nil {
			continue
		}
		var (
			a   *alloc.Assignment
			err error
		)
		if pol == nil || !bytes.Equal(prefix, win.pol.prefix) {
			pol, err = newPolicy(win.pol.name, win.pol.model)
			prefix = win.pol.prefix
		}
		if err == nil {
			a, err = pol.Allocate(vms, win.w.Spec)
		}
		m.finishAhead(key, e, a, err)
	}
}

// claim waits until an open window has a slot ahead of its stepper
// and the budget has room for one more entry, and reserves both. It
// reports false once lookahead has stopped.
func (m *allocMemo) claim() (*window, int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.stopped {
		for _, win := range m.windows {
			if win.cursor > win.w.Next() && m.aheadBytes+win.est <= m.budget/2 {
				s := win.cursor
				win.cursor--
				m.aheadBytes += win.est
				return win, s, true
			}
		}
		m.wake.Wait()
	}
	return nil, 0, false
}

// reserve publishes a pending entry for the claimed slot s of win
// under key. It returns nil, and stops claiming win, when the helper
// has met the stepper — the input already has an entry, or the stepper
// has reached s — or win has closed.
func (m *allocMemo) reserve(win *window, s int, key digest) *allocEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, found := m.entries[key]; found || win.closed || s <= win.w.Next() {
		m.aheadBytes -= win.est
		win.cursor = win.w.First - 1
		return nil
	}
	e := &allocEntry{win: win, size: win.est}
	e.done.Add(1)
	m.entries[key] = e
	win.keys = append(win.keys, key)
	return e
}

// finishAhead publishes a helper's result for e, or drops e when the
// call failed or its Assignment cannot be stored. An entry whose window
// closed meanwhile has already left the map; its waiters still get the
// result.
func (m *allocMemo) finishAhead(key digest, e *allocEntry, a *alloc.Assignment, err error) {
	if err == nil {
		e.p, e.ok = compact(a)
	}
	m.mu.Lock()
	switch {
	case e.ok:
		m.aheadComputed.Add(1)
		if e.win != nil {
			m.aheadBytes += e.p.size() - e.size
			e.size = e.p.size()
		}
	case e.win != nil:
		delete(m.entries, key)
		m.aheadBytes -= e.size
		e.win = nil
	}
	m.mu.Unlock()
	e.done.Done()
}
