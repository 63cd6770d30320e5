package dist

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/sweep"
)

// refLeases is the lease table as Lease kept it when every grant
// scanned the whole unit table: the reference that grants from the
// cursor and the seq-ordered requeue must match, grant for grant.
type refLeases struct {
	state    []int
	lease    []int64
	deadline []time.Time
	pending  int
	leaseID  int64
	expired  int64
	workers  map[string]bool
	ttl      time.Duration
}

func newRefLeases(n int, ttl time.Duration) *refLeases {
	return &refLeases{
		state: make([]int, n), lease: make([]int64, n), deadline: make([]time.Time, n),
		pending: n, workers: map[string]bool{}, ttl: ttl,
	}
}

func (r *refLeases) grant(now time.Time, worker string, max int) []UnitRef {
	leasable := 0
	for i := range r.state {
		if r.state[i] == unitPending || r.state[i] == unitLeased && !now.Before(r.deadline[i]) {
			leasable++
		}
	}
	workers := len(r.workers)
	if !r.workers[worker] {
		workers++
	}
	if share := (leasable + workers - 1) / workers; max > share {
		max = share
	}
	var out []UnitRef
	for i := range r.state {
		if len(out) >= max {
			break
		}
		switch r.state[i] {
		case unitDone:
			continue
		case unitLeased:
			if now.Before(r.deadline[i]) {
				continue
			}
			r.expired++
		}
		r.leaseID++
		r.state[i], r.lease[i], r.deadline[i] = unitLeased, r.leaseID, now.Add(r.ttl)
		out = append(out, UnitRef{Seq: i, Lease: r.leaseID})
	}
	if len(out) > 0 {
		r.workers[worker] = true
	}
	return out
}

func (r *refLeases) complete(worker string, seq int) {
	r.workers[worker] = true
	if r.state[seq] != unitDone {
		r.state[seq] = unitDone
		r.pending--
	}
}

func (r *refLeases) release(ref UnitRef) {
	if r.state[ref.Seq] == unitLeased && r.lease[ref.Seq] == ref.Lease {
		r.state[ref.Seq], r.lease[ref.Seq] = unitPending, 0
	}
}

func (r *refLeases) renew(now time.Time, ref UnitRef) {
	if r.state[ref.Seq] == unitLeased && r.lease[ref.Seq] == ref.Lease {
		r.deadline[ref.Seq] = now.Add(r.ttl)
	}
}

// TestLeaseGrantsMatchTheScan drives random interleavings of leases,
// completes (current, stale and unleased), releases, renewals and
// clock jumps through a coordinator and the whole-table scan it
// replaced: every grant must hand out the same units under the same
// lease IDs, and the coordinator's bookkeeping must stay consistent
// with its table. Halfway, the coordinator is resumed from its journal,
// so the second half starts with rows done and leases live at seqs the
// cursor has not reached.
func TestLeaseGrantsMatchTheScan(t *testing.T) {
	g := testGrid()
	g.StaticPowerW = []float64{0, 5, 10, 15, 20} // 40 units
	ctx := context.Background()
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := time.Unix(1000, 0)
			const ttl = time.Minute
			dir := t.TempDir()
			opt := Options{LeaseTTL: ttl, Clock: func() time.Time { return now }, CheckpointDir: dir}
			c, err := NewCoordinator(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefLeases(len(c.units), ttl)
			names := []string{"a", "b", "c"}
			held := map[string][]UnitRef{}
			pick := func() (string, int) {
				w := names[rng.Intn(len(names))]
				if len(held[w]) == 0 {
					return w, -1
				}
				return w, rng.Intn(len(held[w]))
			}
			complete := func(w string, r UnitRef) {
				row := sweep.RunResult{Scenario: c.units[r.Seq].scenario}
				if err := c.Complete(ctx, w, []UnitResult{{Seq: r.Seq, Lease: r.Lease, Row: row}}, sweep.LoadStats{}); err != nil {
					t.Fatal(err)
				}
				ref.complete(w, r.Seq)
			}
			for step := 0; step < 400 && !sweepDone(c); step++ {
				if step == 150 {
					ck, err := LoadCheckpoint(dir)
					if err != nil {
						t.Fatal(err)
					}
					if c, err = Resume(ck, opt); err != nil {
						t.Fatal(err)
					}
					ref = newRefLeases(len(c.units), ttl)
					ref.pending, ref.leaseID = c.pending, c.leaseID
					for i := range c.units {
						ref.state[i], ref.lease[i], ref.deadline[i] = c.units[i].state, c.units[i].lease, c.units[i].deadline
					}
				}
				switch op := rng.Intn(20); {
				case op < 8:
					w, max := names[rng.Intn(len(names))], 1+rng.Intn(4)
					reply, err := c.Lease(ctx, w, max)
					if err != nil {
						t.Fatal(err)
					}
					var got []UnitRef
					for _, u := range reply.Units {
						got = append(got, UnitRef{Seq: u.Seq, Lease: u.Lease})
					}
					if want := ref.grant(now, w, max); !slices.Equal(got, want) {
						t.Fatalf("step %d: %s leasing %d got %v, the scan grants %v", step, w, max, got, want)
					}
					held[w] = append(held[w], got...)
				case op < 12:
					w, i := pick()
					if i < 0 {
						continue
					}
					r := held[w][i]
					held[w] = slices.Delete(held[w], i, i+1)
					complete(w, r)
				case op < 13:
					// A row for a unit nobody was granted: accepted, as
					// any row for its own scenario is.
					complete(names[rng.Intn(len(names))], UnitRef{Seq: rng.Intn(len(c.units))})
				case op < 15:
					w, i := pick()
					if i < 0 {
						continue
					}
					r := held[w][i]
					held[w] = slices.Delete(held[w], i, i+1)
					if err := c.Release(ctx, w, []UnitRef{r}); err != nil {
						t.Fatal(err)
					}
					ref.release(r)
				case op < 17:
					w, i := pick()
					if i < 0 {
						continue
					}
					if err := c.Renew(ctx, w, held[w][i:i+1]); err != nil {
						t.Fatal(err)
					}
					ref.renew(now, held[w][i])
				default:
					now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
				}
				checkInvariants(t, c)
				if s := c.Stats(); s.Expired != ref.expired || c.leaseID != ref.leaseID {
					t.Fatalf("step %d: %d expired and lease id %d, the scan has %d and %d", step, s.Expired, c.leaseID, ref.expired, ref.leaseID)
				}
			}
		})
	}
}
