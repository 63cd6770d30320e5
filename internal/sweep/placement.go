package sweep

import (
	"fmt"
	"sync"

	"repro/internal/alloc"
	"repro/internal/power"
	"repro/internal/sweep/cache"
	"repro/internal/units"
)

// Placement sharing: simulate once, reprice N times.
//
// Two axes only price what the allocator decided: the transition
// model (dcsim bills power-state changes and migrations after
// Allocate returns) and the power model (policies plan against each
// DC's native model; the axis-resolved model prices the replay only).
// Scenarios that differ in nothing else therefore call every
// allocation policy with the same demands in the same order and get
// the same assignments back. Run exploits that: it splits the grid
// into placement groups (placementGroups), runs one scenario of each
// group with its policies' outputs logged, and runs the rest of the
// group with policies that replay the log. Dispatch, the slot replay,
// transition pricing and aggregation still run per scenario, so every
// row is computed by the same code a lone Exec runs.

// placementKey is a scenario's identity with its pricing-only axes
// cleared: scenarios with equal keys share one placement.
func placementKey(s Scenario) Scenario {
	s.Transitions = ""
	s.PowerModel = ""
	return s
}

// placementGroups partitions scenario indices by placementKey. Groups
// are in order of first appearance and list their indices ascending.
func placementGroups(scens []Scenario) [][]int {
	pos := make(map[Scenario]int, len(scens))
	var groups [][]int
	for i, s := range scens {
		k := placementKey(s)
		g, ok := pos[k]
		if !ok {
			g = len(groups)
			pos[k] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	return groups
}

// policyFactory is topology.Config.NewPolicy.
type policyFactory = func(power.Model) (alloc.Policy, error)

// placementHook intercepts a scenario's policy factory (see
// runScenario); finish reports a run that did not follow the hook's
// script.
type placementHook interface {
	wrap(newPolicy policyFactory) policyFactory
	finish() error
}

// placementLog holds what a leader's policies returned: one policyLog
// per policy instance, in creation order (topology creates one per
// hosting DC per epoch).
type placementLog struct {
	policies []*policyLog
}

type policyLog struct {
	name  string
	calls []placement
}

// placement is one Allocate result reduced to what the slot replay
// and transition pricing read; the predicted per-server CPU/Mem plan
// patterns are dropped. The servers' VM lists are stored back to back
// as int32: most servers of a pool are empty, and one []int per server
// raised policy-grid's max_rss_mb by about 5% (a flat []int by about
// 3.5%) over this layout.
type placement struct {
	spec     alloc.ServerSpec
	vms      []int32 // the servers' VM lists, concatenated in server order
	ends     []int32 // ends[i] is where server i's list ends in vms
	vmServer []int32

	cpuCap, memCap float64
	plannedFreq    units.Frequency
	fixedFreq      bool
	epactCase      int
}

func logPlacement(a *alloc.Assignment, spec alloc.ServerSpec) placement {
	n := 0
	for _, srv := range a.Servers {
		n += len(srv.VMs)
	}
	p := placement{
		spec:        spec,
		vms:         make([]int32, 0, n),
		ends:        make([]int32, len(a.Servers)),
		vmServer:    make([]int32, len(a.VMServer)),
		cpuCap:      a.CPUCapPoints,
		memCap:      a.MemCapPoints,
		plannedFreq: a.PlannedFreq,
		fixedFreq:   a.FixedFreq,
		epactCase:   a.EPACTCase,
	}
	// Each server's list keeps its order: replay sums the server's
	// samples in it, and float addition is not associative.
	for i, srv := range a.Servers {
		for _, v := range srv.VMs {
			p.vms = append(p.vms, int32(v))
		}
		p.ends[i] = int32(len(p.vms))
	}
	for v, s := range a.VMServer {
		p.vmServer[v] = int32(s)
	}
	return p
}

// assignment rebuilds a fresh Assignment (no plan patterns) for one
// replaying scenario; followers replay concurrently, so each gets its
// own slices.
func (p *placement) assignment(policy string) *alloc.Assignment {
	ints := make([]int, len(p.vms)+len(p.vmServer))
	for i, v := range p.vms {
		ints[i] = int(v)
	}
	vmServer := ints[len(p.vms):]
	for i, s := range p.vmServer {
		vmServer[i] = int(s)
	}
	plans := make([]alloc.ServerPlan, len(p.ends))
	servers := make([]*alloc.ServerPlan, len(p.ends))
	start := int32(0)
	for i, end := range p.ends {
		plans[i].VMs = ints[start:end:end]
		servers[i] = &plans[i]
		start = end
	}
	return &alloc.Assignment{
		Policy:       policy,
		Servers:      servers,
		VMServer:     vmServer,
		CPUCapPoints: p.cpuCap,
		MemCapPoints: p.memCap,
		PlannedFreq:  p.plannedFreq,
		FixedFreq:    p.fixedFreq,
		EPACTCase:    p.epactCase,
	}
}

// wrap makes the log a recorder: every policy the factory builds logs
// each assignment it returns.
func (l *placementLog) wrap(newPolicy policyFactory) policyFactory {
	return func(m power.Model) (alloc.Policy, error) {
		pol, err := newPolicy(m)
		if err != nil {
			return nil, err
		}
		pl := &policyLog{name: pol.Name()}
		l.policies = append(l.policies, pl)
		return &recordingPolicy{Policy: pol, log: pl}, nil
	}
}

func (l *placementLog) finish() error { return nil }

type recordingPolicy struct {
	alloc.Policy
	log *policyLog
}

func (p *recordingPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	a, err := p.Policy.Allocate(vms, spec)
	if err != nil {
		return nil, err
	}
	p.log.calls = append(p.log.calls, logPlacement(a, spec))
	return a, nil
}

// replayer hands out policies that replay a placementLog, one per
// logged policy in creation order. Any divergence from the log — more
// or fewer policies or calls, another VM count or server spec — is an
// error, never a silently wrong row.
type replayer struct {
	log  *placementLog
	made []*replayPolicy
}

func (r *replayer) wrap(policyFactory) policyFactory {
	return func(power.Model) (alloc.Policy, error) {
		if len(r.made) == len(r.log.policies) {
			return nil, fmt.Errorf("sweep: placement replay: policy %d created, the log holds %d",
				len(r.made)+1, len(r.log.policies))
		}
		p := &replayPolicy{log: r.log.policies[len(r.made)], id: len(r.made)}
		r.made = append(r.made, p)
		return p, nil
	}
}

func (r *replayer) finish() error {
	if len(r.made) != len(r.log.policies) {
		return fmt.Errorf("sweep: placement replay: %d policies created, the log holds %d",
			len(r.made), len(r.log.policies))
	}
	for _, p := range r.made {
		if p.next != len(p.log.calls) {
			return fmt.Errorf("sweep: placement replay: policy %d (%s) allocated %d slots, the log holds %d",
				p.id, p.log.name, p.next, len(p.log.calls))
		}
	}
	return nil
}

type replayPolicy struct {
	log  *policyLog
	id   int
	next int
}

func (p *replayPolicy) Name() string { return p.log.name }

func (p *replayPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	if p.next == len(p.log.calls) {
		return nil, fmt.Errorf("sweep: placement replay: policy %d (%s) called %d times, the log holds %d",
			p.id, p.log.name, p.next+1, len(p.log.calls))
	}
	c := &p.log.calls[p.next]
	switch {
	case len(vms) != len(c.vmServer):
		return nil, fmt.Errorf("sweep: placement replay: policy %d (%s) call %d got %d VMs, the log holds %d",
			p.id, p.log.name, p.next, len(vms), len(c.vmServer))
	case spec != c.spec:
		return nil, fmt.Errorf("sweep: placement replay: policy %d (%s) call %d got server spec %+v, the log holds %+v",
			p.id, p.log.name, p.next, spec, c.spec)
	}
	p.next++
	return c.assignment(p.log.name), nil
}

// task is one unit of Run's worker pool: a whole placement group
// (group != nil), or one row of a group whose leader has finished,
// replaying the leader's log (nil when the leader failed).
type task struct {
	group []int
	row   int
	key   string // the row's cache key ("" when not cacheable)
	log   *placementLog
}

// taskQueue feeds Run's worker pool. Rows of led groups go before
// new groups: they are ready to run, and draining them frees their
// group's log.
type taskQueue struct {
	mu      sync.Mutex
	ready   sync.Cond
	groups  [][]int
	next    int // the next group to hand out
	leading int // groups handed out whose leader has not finished
	rows    []task
}

func newTaskQueue(groups [][]int) *taskQueue {
	q := &taskQueue{groups: groups}
	q.ready.L = &q.mu
	return q
}

// take blocks until there is a task, and reports false once every
// group is led and every row has been handed out.
func (q *taskQueue) take() (task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case len(q.rows) > 0:
			t := q.rows[0]
			q.rows = q.rows[1:]
			return t, true
		case q.next < len(q.groups):
			q.next++
			q.leading++
			return task{group: q.groups[q.next-1]}, true
		case q.leading == 0:
			return task{}, false
		}
		q.ready.Wait()
	}
}

// led ends one group's leading stage and queues its remaining rows.
func (q *taskQueue) led(rows []task) {
	q.mu.Lock()
	q.leading--
	q.rows = append(q.rows, rows...)
	q.mu.Unlock()
	q.ready.Broadcast()
}

// lead answers a placement group's cache hits and its first miss, and
// returns the other misses as tasks. When at least two rows miss, the
// first (the leader) runs with its placements logged and the others
// replay the log; a failed leader leaves them to run unshared. A group
// with a single miss logs nothing.
func (r *Runner) lead(scens []Scenario, group []int, store *cache.Store, onPutErr func(error), emit func(int, RunResult)) []task {
	var misses []task
	for _, i := range group {
		row, key, hit := cacheLookup(r.ld, r.grid, scens[i], store)
		if hit {
			emit(i, row)
			continue
		}
		misses = append(misses, task{row: i, key: key})
	}
	if len(misses) == 0 {
		return nil
	}
	var log *placementLog
	var hook placementHook // a nil *placementLog must not become a non-nil hook
	if len(misses) > 1 {
		log = &placementLog{}
		hook = log
	}
	leader := misses[0]
	row := runScenario(r.ld, r.grid, scens[leader.row], hook)
	cachePut(store, leader.key, row, onPutErr)
	emit(leader.row, row)
	if row.Err != "" {
		log = nil
	}
	rest := misses[1:]
	for k := range rest {
		rest[k].log = log
	}
	return rest
}

// follow answers one row of a led group, replaying the leader's log
// when there is one, and reports whether the row was answered from a
// logged placement.
func (r *Runner) follow(scens []Scenario, t task, store *cache.Store, onPutErr func(error), emit func(int, RunResult)) bool {
	var hook placementHook
	if t.log != nil {
		hook = &replayer{log: t.log}
	}
	row := runScenario(r.ld, r.grid, scens[t.row], hook)
	cachePut(store, t.key, row, onPutErr)
	emit(t.row, row)
	return t.log != nil && row.Err == ""
}
