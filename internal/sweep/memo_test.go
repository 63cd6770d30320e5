package sweep

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/power"
	"repro/internal/units"
)

// pricingGrid crosses both pricing-only axes (three transition models,
// one of them custom, and both power models) with every policy,
// single and multi-DC fleets, static and rebalanced: 144 scenarios,
// each making the same allocation calls as five pricing siblings.
func pricingGrid() Grid {
	return Grid{
		Policies:    PolicyNames(),
		VMs:         []int{24},
		MaxServers:  []int{24},
		HistoryDays: 1,
		EvalDays:    1,
		Seeds:       []int64{2018},
		Predictors:  []string{"oracle"},
		Transitions: []TransitionSpec{
			{Name: "none"},
			{Name: "default"},
			{Name: "cheap-boot", Model: &dcsim.TransitionModel{
				ServerOnEnergy:         500 * units.Joule,
				ServerOffEnergy:        100 * units.Joule,
				MigrationEnergyPerByte: units.Energy(2e-9),
			}},
		},
		PowerModels: []string{"ntc", "tdp"},
		Topologies:  []string{"single", "greedy-proportional@triad"},
		Rebalances:  []string{"off", "epoch:4@greedy-proportional"},
	}
}

// countingPolicy counts Allocate calls; gate, when non-nil, holds
// every call until it closes, and fail picks the calls (1-based) that
// fail.
type countingPolicy struct {
	alloc.Policy
	calls atomic.Int64
	gate  chan struct{}
	fail  func(call int64) bool
}

func (p *countingPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	n := p.calls.Add(1)
	if p.gate != nil {
		<-p.gate
	}
	if p.fail != nil && p.fail(n) {
		return nil, errors.New("injected failure")
	}
	return p.Policy.Allocate(vms, spec)
}

// memoInput is one slot's demands for a few VMs, sized for model.
func memoInput(model power.Model) ([]alloc.VMDemand, alloc.ServerSpec) {
	vms := make([]alloc.VMDemand, 10)
	for i := range vms {
		vms[i] = alloc.VMDemand{ID: i, CPU: make([]float64, 12), Mem: make([]float64, 12)}
		for s := range vms[i].CPU {
			vms[i].CPU[s] = float64(10 + (7*i+3*s)%60)
			vms[i].Mem[s] = float64(5 + (3*i+s)%20)
		}
	}
	return vms, alloc.ServerSpec{
		Cores:         model.NumCores(),
		MemContainers: model.MemGB(),
		FMax:          model.FreqMax(),
		FMin:          model.FreqMin(),
	}
}

// counted builds policy name on model, wrapped in a counter and then
// in the memo.
func counted(t *testing.T, m *allocMemo, name string, model power.Model) (alloc.Policy, *countingPolicy) {
	t.Helper()
	inner, err := newPolicy(name, model)
	if err != nil {
		t.Fatal(err)
	}
	cp := &countingPolicy{Policy: inner}
	pol := m.wrap(name, model, cp, nil)
	if _, ok := pol.(*memoPolicy); !ok {
		t.Fatalf("%s on %T was not memoized", name, model)
	}
	return pol, cp
}

// sameAssignment compares everything the slot replay and transition
// pricing read.
func sameAssignment(a, b *alloc.Assignment) bool {
	if a.Policy != b.Policy || len(a.Servers) != len(b.Servers) || len(a.VMServer) != len(b.VMServer) ||
		a.CPUCapPoints != b.CPUCapPoints || a.MemCapPoints != b.MemCapPoints ||
		a.PlannedFreq != b.PlannedFreq || a.FixedFreq != b.FixedFreq || a.EPACTCase != b.EPACTCase {
		return false
	}
	for i := range a.VMServer {
		if a.VMServer[i] != b.VMServer[i] {
			return false
		}
	}
	for i := range a.Servers {
		if len(a.Servers[i].VMs) != len(b.Servers[i].VMs) {
			return false
		}
		for k := range a.Servers[i].VMs {
			if a.Servers[i].VMs[k] != b.Servers[i].VMs[k] {
				return false
			}
		}
	}
	return true
}

// TestMemoRunsConcurrentCallsOnce: callers racing on one input share
// a single Allocate, and each gets its own copy of the policy's
// answer.
func TestMemoRunsConcurrentCallsOnce(t *testing.T) {
	m := newAllocMemo(memoBudget)
	model := power.NTCServer()
	pol, cp := counted(t, m, "EPACT", model)
	cp.gate = make(chan struct{})
	vms, spec := memoInput(model)
	want, err := cp.Policy.Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	got := make([]*alloc.Assignment, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = pol.Allocate(vms, spec)
		}()
	}
	time.Sleep(10 * time.Millisecond) // let the callers pile up on the first
	close(cp.gate)
	wg.Wait()

	if c := cp.calls.Load(); c != 1 {
		t.Fatalf("policy ran %d times for one input, want 1", c)
	}
	if h := m.hits.Load(); h != n-1 {
		t.Errorf("%d memo hits, want %d", h, n-1)
	}
	for i, a := range got {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameAssignment(a, want) {
			t.Errorf("caller %d got %+v, want %+v", i, a, want)
		}
	}
	// Copies are independent: a caller may modify its own.
	for i := range got {
		got[i].VMServer[0] = -1
		got[i].Servers[0].VMs[0] = -1
	}
	again, err := pol.Allocate(vms, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !sameAssignment(again, want) {
		t.Error("modifying a returned Assignment changed the memo's entry")
	}
}

// TestMemoNeverServesFailures: a failed or panicking Allocate leaves
// no entry, so a later caller, or one that waited on the failing call,
// runs the policy itself.
func TestMemoNeverServesFailures(t *testing.T) {
	model := power.NTCServer()
	vms, spec := memoInput(model)
	firstFails := func(call int64) bool { return call == 1 }

	m := newAllocMemo(memoBudget)
	pol, cp := counted(t, m, "COAT", model)
	cp.fail = firstFails
	if a, err := pol.Allocate(vms, spec); err == nil {
		t.Fatalf("failing call returned %+v", a)
	}
	if _, err := pol.Allocate(vms, spec); err != nil {
		t.Fatalf("call after a failure was served the failure: %v", err)
	}
	if c, h := cp.calls.Load(), m.hits.Load(); c != 2 || h != 0 {
		t.Fatalf("after fail+retry: %d calls, %d hits, want 2 and 0", c, h)
	}
	if _, err := pol.Allocate(vms, spec); err != nil || m.hits.Load() != 1 {
		t.Fatalf("third call: err %v, %d hits, want a hit", err, m.hits.Load())
	}

	// A caller waiting on the failing call runs its own.
	m = newAllocMemo(memoBudget)
	pol, cp = counted(t, m, "COAT", model)
	cp.fail, cp.gate = firstFails, make(chan struct{})
	errA := make(chan error)
	go func() {
		_, err := pol.Allocate(vms, spec)
		errA <- err
	}()
	for cp.calls.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	errB := make(chan error)
	go func() {
		_, err := pol.Allocate(vms, spec)
		errB <- err
	}()
	time.Sleep(10 * time.Millisecond) // let B wait on A's entry
	close(cp.gate)
	if err := <-errA; err == nil {
		t.Error("the failing call succeeded")
	}
	if err := <-errB; err != nil {
		t.Errorf("the waiting call was served the failure: %v", err)
	}
	if c, h := cp.calls.Load(), m.hits.Load(); c != 2 || h != 0 {
		t.Errorf("%d calls, %d hits, want 2 and 0", c, h)
	}

	// A panicking call (net/http recovers a handler's) drops its entry
	// too, so later callers do not wait on it forever.
	m = newAllocMemo(memoBudget)
	pol, cp = counted(t, m, "COAT", model)
	cp.fail = func(call int64) bool {
		if call == 1 {
			panic("injected panic")
		}
		return false
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = pol.Allocate(vms, spec)
	}()
	if n := len(m.entries); n != 0 {
		t.Fatalf("a panicked call left %d entries", n)
	}
	if _, err := pol.Allocate(vms, spec); err != nil {
		t.Errorf("call after a panic: %v", err)
	}
}

// TestMemoKeysOnServerModel: the key encodes the whole server model,
// so DCs that differ only in static power (the triad's metro) never
// share an entry, while equal models built separately do.
func TestMemoKeysOnServerModel(t *testing.T) {
	m := newAllocMemo(memoBudget)
	base := ServerModel(0)
	metro := ServerModel(25)
	vms, spec := memoInput(base)
	if _, spec2 := memoInput(metro); spec2 != spec {
		t.Fatal("static power changed the server spec; the test needs equal specs")
	}
	for _, model := range []*power.ServerModel{base, metro, ServerModel(0)} {
		pol, _ := counted(t, m, "EPACT", model)
		if _, err := pol.Allocate(vms, spec); err != nil {
			t.Fatal(err)
		}
	}
	if n, h := len(m.entries), m.hits.Load(); n != 2 || h != 1 {
		t.Errorf("%d entries and %d hits, want 2 (base, metro) and 1 (the rebuilt base)", n, h)
	}
	// The policy name is part of the key too.
	pol, _ := counted(t, m, "COAT", base)
	if _, err := pol.Allocate(vms, spec); err != nil {
		t.Fatal(err)
	}
	if h := m.hits.Load(); h != 1 {
		t.Errorf("COAT was answered from EPACT's entry")
	}
}

// TestMemoKeyCoversEveryInput: changing any one part of a call's
// input, down to one sample's bits, changes its key.
func TestMemoKeyCoversEveryInput(t *testing.T) {
	m := newAllocMemo(memoBudget)
	prefix := appendString(nil, "EPACT")
	vms, spec := memoInput(power.NTCServer())
	base := m.key(prefix, vms, spec)
	if m.key(prefix, vms, spec) != base {
		t.Fatal("the key is not deterministic")
	}
	for _, tc := range []struct {
		name   string
		mutate func(vms []alloc.VMDemand, spec *alloc.ServerSpec) []alloc.VMDemand
	}{
		{"id", func(v []alloc.VMDemand, _ *alloc.ServerSpec) []alloc.VMDemand { v[3].ID = 99; return v }},
		{"cpu", func(v []alloc.VMDemand, _ *alloc.ServerSpec) []alloc.VMDemand { v[4].CPU[5] += 1e-9; return v }},
		{"mem", func(v []alloc.VMDemand, _ *alloc.ServerSpec) []alloc.VMDemand { v[4].Mem[5] = -v[4].Mem[5]; return v }},
		{"samples", func(v []alloc.VMDemand, _ *alloc.ServerSpec) []alloc.VMDemand {
			v[0].CPU, v[0].Mem = v[0].CPU[:11], append(v[0].Mem, v[0].CPU[11])
			return v
		}},
		{"vms", func(v []alloc.VMDemand, _ *alloc.ServerSpec) []alloc.VMDemand { return v[1:] }},
		{"cores", func(v []alloc.VMDemand, s *alloc.ServerSpec) []alloc.VMDemand { s.Cores++; return v }},
		{"mem-containers", func(v []alloc.VMDemand, s *alloc.ServerSpec) []alloc.VMDemand { s.MemContainers++; return v }},
		{"fmax", func(v []alloc.VMDemand, s *alloc.ServerSpec) []alloc.VMDemand { s.FMax++; return v }},
		{"fmin", func(v []alloc.VMDemand, s *alloc.ServerSpec) []alloc.VMDemand { s.FMin++; return v }},
	} {
		v, sp := memoInput(power.NTCServer())
		v = tc.mutate(v, &sp)
		if m.key(prefix, v, sp) == base {
			t.Errorf("%s: a changed input kept the key", tc.name)
		}
	}
	if m.key(appendString(nil, "COAT"), vms, spec) == base {
		t.Error("another policy prefix kept the key")
	}
}

// memoRun executes scens in order on one memo-on Runner and reports,
// per row, how many new distinct inputs and memo hits it added.
func memoRun(t *testing.T, g Grid) (rows []RunResult, fills, hits []int) {
	t.Helper()
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scens {
		e0, h0 := len(rn.memo.entries), rn.memo.hits.Load()
		r := rn.Exec(s)
		if r.Err != "" {
			t.Fatalf("%s: %s", s.ID(), r.Err)
		}
		rows = append(rows, r)
		fills = append(fills, len(rn.memo.entries)-e0)
		hits = append(hits, int(rn.memo.hits.Load()-h0))
	}
	return rows, fills, hits
}

// TestMemoSharesPricingSiblings: a tdp row makes exactly its ntc
// sibling's calls (policies plan against the native model), so every
// one of them is a hit.
func TestMemoSharesPricingSiblings(t *testing.T) {
	g := Grid{
		Policies: []string{"EPACT"}, VMs: []int{24}, MaxServers: []int{24},
		HistoryDays: 1, EvalDays: 1, Seeds: []int64{2018}, Predictors: []string{"oracle"},
		PowerModels: []string{"ntc", "tdp"},
	}
	rows, fills, hits := memoRun(t, g)
	if fills[0] == 0 || fills[1] != 0 || hits[1] != rows[1].Slots {
		t.Errorf("ntc then tdp: %v new inputs and %v hits, want the tdp row's %d slots all hits",
			fills, hits, rows[1].Slots)
	}
}

// TestMemoHitsPopulationHop: carbon-greedy rebalancing moves the whole
// population between the solar and wind DCs, which run the same server
// model, so the rebalanced row makes only calls the static row made.
func TestMemoHitsPopulationHop(t *testing.T) {
	g := Grid{
		Policies: []string{"EPACT"}, VMs: []int{24}, MaxServers: []int{24},
		HistoryDays: 1, EvalDays: 1, Seeds: []int64{2018}, Predictors: []string{"oracle"},
		Topologies: []string{"carbon-greedy@triad-carbon"},
		Rebalances: []string{"off", "epoch:6@carbon-greedy"},
	}
	rows, fills, hits := memoRun(t, g)
	hop := rows[1]
	if hop.CrossDCMigrations == 0 || hop.CrossDCMigrations%hop.Scenario.VMs != 0 {
		t.Fatalf("rebalanced row moved %d VMs, want whole-population hops of %d", hop.CrossDCMigrations, hop.Scenario.VMs)
	}
	if fills[1] != 0 || hits[1] != hop.Slots {
		t.Errorf("hopping row added %d inputs and %d hits, want 0 and %d", fills[1], hits[1], hop.Slots)
	}
}

// TestMemoStaysWithinBudget is the long-lived Runner (ntc-serve) case:
// executing many distinct scenarios evicts old entries so the stored
// bytes never exceed the budget, and rows stay those of a memo-off
// Runner.
func TestMemoStaysWithinBudget(t *testing.T) {
	g := Grid{
		Policies: []string{"EPACT", "COAT"}, VMs: []int{24}, MaxServers: []int{24},
		HistoryDays: 1, EvalDays: 1, Predictors: []string{"oracle"},
		Seeds: []int64{1, 2, 3, 4, 5, 6},
	}
	rn, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8 << 10
	rn.memo = newAllocMemo(budget)
	ref, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	ref.memo = nil
	scens, err := Expand(g)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, s := range scens {
		got := (&Results{Runs: []RunResult{rn.Exec(s)}}).CSV()
		want := (&Results{Runs: []RunResult{ref.Exec(s)}}).CSV()
		if got != want {
			t.Errorf("%s: memoized row differs:\n%s\nvs\n%s", s.ID(), got, want)
		}
		calls += 24 // one call per slot on the single DC
		if b := rn.memo.bytes; b > budget {
			t.Fatalf("after %s the memo holds %d bytes, over its %d budget", s.ID(), b, budget)
		}
		if len(rn.memo.fifo) != len(rn.memo.entries) {
			t.Fatalf("%d entries but %d finished: an entry leaked", len(rn.memo.entries), len(rn.memo.fifo))
		}
	}
	if fills := calls - int(rn.memo.hits.Load()); fills <= len(rn.memo.entries) {
		t.Errorf("%d inputs computed and %d kept: nothing was evicted", fills, len(rn.memo.entries))
	}
}
