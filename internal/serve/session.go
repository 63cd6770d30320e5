package serve

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/dcsim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// errNotIngest rejects Observe on a plain replay session.
var errNotIngest = errors.New("not a live-ingestion session")

// Session is one live scenario run: a stepper, its live state, the
// published snapshot, and the session's what-if accounting. Sessions
// are independent — each has its own locks — and share only the
// server's result store and execution lease.
type Session struct {
	id   string
	scen sweep.Scenario

	// runner resolves the session's inputs and answers its what-ifs
	// over them (see Server.runnerFor).
	runner *sweep.Runner

	// feed is non-nil only on live-ingestion sessions: it owns the
	// trace's evaluation region and gates the stepper (cfg.Source) on
	// observed samples.
	feed *dcsim.LiveFeed

	// mu serialises stepping and owns the live state.
	mu      sync.Mutex
	stepper *topology.Stepper
	stepErr error
	cum     Snapshot // the live state; copied (not aliased) into published snapshots

	// cur is the published snapshot; scrapes load it once.
	cur atomic.Pointer[Snapshot]

	// wmu owns the what-if and cache-attribution counters.
	wmu sync.Mutex
	wst whatifStats
}

// newSession positions a session before slot 0 and publishes its
// first snapshot.
func newSession(id string, scen sweep.Scenario, runner *sweep.Runner, st *topology.Stepper, feed *dcsim.LiveFeed) *Session {
	sess := &Session{id: id, scen: scen, runner: runner, feed: feed, stepper: st}
	sess.cum = Snapshot{
		Session:  id,
		Scenario: scen,
		Slots:    st.Slots(),
		Done:     st.Done(),
		Ingest:   feed != nil,
		DCs:      make([]DCSnapshot, len(st.Fleet().DCs)),
	}
	for i, dc := range st.Fleet().DCs {
		sess.cum.DCs[i].Name = dc.Name
	}
	sess.publishLocked()
	return sess
}

// Snapshot returns the session's published snapshot. It is immutable;
// callers must not modify it.
func (sess *Session) Snapshot() *Snapshot { return sess.cur.Load() }

// publishLocked copies the live state into a fresh immutable
// snapshot, derives the lifecycle state, and swaps the snapshot in.
// Caller holds mu (or is the constructor).
func (sess *Session) publishLocked() {
	snap := sess.cum
	snap.DCs = append([]DCSnapshot(nil), sess.cum.DCs...)
	switch {
	case sess.stepErr != nil:
		snap.State = StateFailed
	case snap.Done:
		snap.State = StateDone
	case snap.Ingest && snap.Slot >= snap.Ingested:
		snap.State = StateAwaiting
	default:
		snap.State = StateReplaying
	}
	sess.cur.Store(&snap)
}

// Step advances the replay by up to n slots (n <= 0 steps one) and
// publishes a snapshot. It returns the new completed-slot count,
// whether the replay has finished, and how many slots THIS call
// advanced — the caller distinguishes "no-op at the end" (stepped 0,
// done) from real progress. Stepping a finished replay is a no-op.
//
// On a live-ingestion session, Step stops at the first slot whose
// samples have not been observed and returns an error wrapping
// dcsim.ErrAwaitingSamples alongside the progress it did make;
// nothing advanced and nothing is poisoned — the step is retryable
// after the next Observe. Any other simulation error poisons the
// session: it is returned from every subsequent Step.
func (sess *Session) Step(n int) (slot int, done bool, stepped int, err error) {
	if n <= 0 {
		n = 1
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.stepErr != nil {
		return sess.cum.Slot, sess.cum.Done, 0, sess.stepErr
	}
	for i := 0; i < n && !sess.stepper.Done(); i++ {
		step, serr := sess.stepper.Step()
		if serr != nil {
			if errors.Is(serr, dcsim.ErrAwaitingSamples) {
				err = serr
				break
			}
			sess.stepErr = serr
			sess.publishLocked()
			return sess.cum.Slot, sess.cum.Done, stepped, serr
		}
		sess.apply(step)
		stepped++
	}
	sess.cum.Done = sess.stepper.Done()
	sess.publishLocked()
	return sess.cum.Slot, sess.cum.Done, stepped, err
}

// Observe feeds one observed evaluation slot (per-VM utilisation
// sample rows) into a live-ingestion session and republishes the
// snapshot — an awaiting session becomes replayable the moment its
// next slot's samples land. Validation mirrors the CSV ingester
// (dcsim.LiveFeed.Observe): strictly in-order slots, exact VM and
// sample counts, percentages in [0,100].
func (sess *Session) Observe(slot int, cpu, mem [][]float64) (ingested int, err error) {
	if sess.feed == nil {
		return 0, errNotIngest
	}
	err = sess.feed.Observe(slot, cpu, mem)
	ingested = sess.feed.Ingested()
	sess.mu.Lock()
	sess.cum.Ingested = ingested
	sess.publishLocked()
	sess.mu.Unlock()
	return ingested, err
}

// apply publishes the stepper's tallies after one slot, plus that
// slot's instantaneous values. Caller holds mu.
func (sess *Session) apply(step topology.SlotStep) {
	c := &sess.cum
	c.Slot = step.Slot + 1
	c.Tally = sess.stepper.Tally()
	c.SlotEnergyMJ = step.EnergyMJ
	c.ActiveServers = step.ActiveServers
	for i := range step.DCs {
		d, v := &c.DCs[i], &step.DCs[i]
		d.Tally = sess.stepper.DCTally(i)
		d.VMs = v.VMs
		d.SlotEnergyMJ = v.EnergyMJ
		// 1 slot = 1 hour: mean power over the slot in watts.
		d.PowerW = v.EnergyMJ * 1e6 / 3600
		d.ActiveServers = v.ActiveServers
	}
}

// statsSnapshot copies the committed what-if and cache counters.
func (sess *Session) statsSnapshot() whatifStats {
	sess.wmu.Lock()
	defer sess.wmu.Unlock()
	return sess.wst
}
