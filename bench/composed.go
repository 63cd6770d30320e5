package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime/metrics"
	"strings"
	"sync"
	"time"

	"repro/internal/alloc"
	"repro/internal/dcsim"
	"repro/internal/forecast"
	"repro/internal/power"
	"repro/internal/sweep"
	"repro/internal/sweep/cache"
	"repro/internal/sweep/dist"
	"repro/internal/topology"
	"repro/internal/trace"
)

// minPasses is the fewest composed passes a traced run makes.
const minPasses = 2

// pass is one composed, traced pass over a workload's grid.
type pass struct {
	tr    *tracer
	rn    *sweep.Runner
	scens []sweep.Scenario
	runs  []composed // per scenario, as the timed window ran it
	spans []span     // every span, once the side calls are done

	// wall is the pass's timed window: the same scenario work sweep.Run
	// does, under spans. The side calls are outside it.
	wall time.Duration

	rowBytes int // summed bytes of the rows put into the result store
	rows     int
	gc       gcSnapshot // collector activity during the timed window
	heapPeak uint64     // highest live-heap sample during the timed window, bytes
}

// traceBatch is a workload's traced run: as often as fits budget (at
// least minPasses times) it runs the grid untraced through sweep.Run
// and re-drives every scenario through the engine's exported entry
// points under spans, checking each fleet result against the untraced
// one — otherwise the spans would time a different program. Its
// per-layer numbers are the median over passes. It returns the
// untraced CSV.
func traceBatch(rc *runCtx, w *workload, budget time.Duration) (refCSV string) {
	g := w.grid(rc.seed)
	var (
		perPass  []map[string]float64
		overhead []float64
	)
	// A process's first grid run pays for growing the heap from nothing
	// and runs about a third slower than the next; one untimed run
	// keeps that out of both sides of the first pass.
	if _, err := sweepRep(rc, g); err != nil {
		rc.op(false, "%s: warm-up run: %v", w.name, err)
		return ""
	}
	// A pass is an untraced run, the composed re-drive of the same
	// work and its side calls, which build every input once more: about
	// three nominal runs.
	for i := range repCount(budget, 3*w.nominal, minPasses) {
		// Whichever of the two runs comes second finds the heap the
		// first one grew (the engine keeps validated traces alive), so
		// it collects less often; alternating their order keeps that
		// out of the overhead.
		var (
			ref repOut
			p   *pass
			err error
		)
		if i%2 == 0 {
			if ref, err = sweepRep(rc, g); err == nil {
				p, err = composedWindow(g)
			}
		} else {
			if p, err = composedWindow(g); err == nil {
				ref, err = sweepRep(rc, g)
			}
		}
		if err == nil {
			err = p.sideCalls(rc, ref.res)
		}
		if err != nil {
			rc.op(false, "%s: pass %d: %v", w.name, i, err)
			return ""
		}
		checkRows(rc, w.name, ref.res.Runs)
		refCSV = ref.res.CSV()
		rc.spans = append(rc.spans, p.spans)
		perPass = append(perPass, passLayers(p, ref.res.Load))
		overhead = append(overhead, 100*(float64(p.wall)/float64(ref.wall)-1))
	}
	for _, m := range perLayer {
		xs := make([]float64, len(perPass))
		for i, pm := range perPass {
			xs[i] = pm[m.Name]
		}
		rc.gate(m.Name, median(xs))
	}
	// Policies outside EPACT and COAT do not run on every workload, so
	// their splits are reported, not gated.
	for _, pol := range sweep.PolicyNames() {
		if pol == "EPACT" || pol == "COAT" {
			continue
		}
		var self, p50 []float64
		for _, pm := range perPass {
			if v, ok := pm["alloc."+pol+".self_ms"]; ok {
				self = append(self, v)
				p50 = append(p50, pm["alloc."+pol+".slot_ms_p50"])
			}
		}
		if len(self) > 0 {
			rc.extra("alloc."+pol+".self_ms", "ms", median(self))
			rc.extra("alloc."+pol+".slot_ms_p50", "ms", median(p50))
		}
	}
	rc.extra("trace.overhead_pct", "%", median(overhead))
	rc.extra("trace.passes", "count", float64(len(perPass)))
	rc.table = selfTable(byName(rc.spans...))
	return refCSV
}

// passLayers derives the per-layer metrics of one composed pass from
// its spans; load is the untraced engine run's input-sharing counters.
func passLayers(p *pass, load sweep.LoadStats) map[string]float64 {
	st := byName(p.spans)
	get := func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
	selfMs := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += get(n).self
		}
		return ms(time.Duration(ns))
	}
	m := map[string]float64{
		"trace.load_ms":             selfMs("trace.Generate"),
		"trace.builds":              float64(load.TraceBuilds),
		"forecast.predict_ms":       selfMs("dcsim.Predict"),
		"forecast.builds":           float64(load.PredictBuilds),
		"sweep.input_wait_ms":       selfMs("sweep.StepperConfig"),
		"sweep.encode_ms":           selfMs("sweep.Encode"),
		"topology.dispatch_ms":      selfMs("topology.Dispatch"),
		"topology.dispatch_calls":   float64(get("topology.Dispatch").count),
		"topology.new_stepper_ms":   selfMs("topology.NewStepper"),
		"topology.step_boundary_ms": selfMs("topology.StepBoundary"),
		"topology.step_interior_ms": selfMs("topology.Step"),
		"topology.result_ms":        selfMs("topology.Result"),
		"cache.put_ms_p50":          median(get("cache.Put").durs),
		"cache.get_ms_p50":          median(get("cache.Get").durs),
		"runtime.gc_cycles":         float64(p.gc.cycles),
		"runtime.gc_pause_ms_total": ms(time.Duration(p.gc.pauseNs)),
		"runtime.heap_peak_mb":      float64(p.heapPeak) / mb,
	}
	if p.rows > 0 {
		m["cache.row_bytes"] = float64(p.rowBytes) / float64(p.rows)
	}
	// The replay's own time is each slot's Step minus the allocation
	// calls inside it, which are the step spans' children.
	steps := get("topology.StepBoundary").count + get("topology.Step").count
	m["dcsim.replay_self_ms"] = selfMs("topology.StepBoundary", "topology.Step")
	if steps > 0 {
		m["dcsim.replay_ms_per_slot"] = m["dcsim.replay_self_ms"] / float64(steps)
	}
	var calls int
	var self int64
	var durs []float64
	for name, s := range st {
		pol, ok := strings.CutPrefix(name, "alloc.")
		if !ok {
			continue
		}
		calls += s.count
		self += s.self
		durs = append(durs, s.durs...)
		m["alloc."+pol+".self_ms"] = ms(time.Duration(s.self))
		m["alloc."+pol+".slot_ms_p50"] = median(s.durs)
	}
	m["alloc.calls"] = float64(calls)
	m["alloc.self_ms"] = ms(time.Duration(self))
	m["alloc.slot_ms_p50"] = median(durs)
	return m
}

// composed is one scenario as the composed pass ran it.
type composed struct {
	cfg        topology.Config
	fleet      *topology.FleetResult
	boundaries []boundary
}

// boundary is an epoch-opening slot and how many VMs each DC hosted
// after it.
type boundary struct {
	slot int
	vms  []int
}

// composedWindow is a composed pass's timed window: per scenario of g,
// Runner.StepperConfig, topology.NewStepper with a timing allocation
// policy, every slot's Step, and Result, on two goroutines like the
// engine's worker pool. That is the work sweep.Run does, so the
// window's wall time over sweep.Run's is the tracing overhead.
func composedWindow(g sweep.Grid) (*pass, error) {
	scens, err := sweep.Expand(g)
	if err != nil {
		return nil, err
	}
	rn, err := sweep.NewRunner(g)
	if err != nil {
		return nil, err
	}
	p := &pass{tr: newTracer(), rn: rn, scens: scens}

	tr := p.tr
	heap := startHeapSampler()
	defer heap.stop()
	gc0 := readGC()
	start := time.Now()
	root := tr.begin("pass", 0, -1)
	runs := make([]composed, len(scens))
	errs := make([]error, len(scens))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				runs[i], errs[i] = composeScenario(tr, root, i, rn, scens[i])
			}
		}()
	}
	for i := range scens {
		next <- i
	}
	close(next)
	wg.Wait()
	tr.end(root)
	p.wall = time.Since(start)
	gc1 := readGC()
	p.gc = gcSnapshot{cycles: gc1.cycles - gc0.cycles, pauseNs: gc1.pauseNs - gc0.pauseNs}
	p.heapPeak = heap.stop()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", scens[i].ID(), err)
		}
	}
	p.runs = runs
	return p, nil
}

// sideCalls checks a pass's timed window against ref, the untraced run
// of the same grid: every fleet result must equal ref's. Then it makes
// the side calls, each timed on its own: trace.Generate and
// dcsim.Predict once per distinct input, whose outputs must equal the
// inputs StepperConfig handed the stepper; the dispatch opening every
// epoch, which must place as many VMs per DC as the stepper did;
// encoding ref; and a result-store Put and Get of every row of ref
// under Runner.CacheKey.
func (p *pass) sideCalls(rc *runCtx, ref *sweep.Results) error {
	if len(p.scens) != len(ref.Runs) {
		return fmt.Errorf("%d scenarios, the untraced run has %d rows", len(p.scens), len(ref.Runs))
	}
	for i, s := range p.scens {
		rc.op(reflect.DeepEqual(p.runs[i].fleet, ref.Runs[i].Fleet),
			"scenario %s: the composed fleet result differs from the untraced run's", s.ID())
	}

	tr := p.tr
	side := tr.begin("side", 0, -1)
	if err := sideInputs(rc, tr, side, p.scens, p.runs); err != nil {
		return err
	}
	if err := sideDispatch(rc, tr, side, p.scens, p.runs); err != nil {
		return err
	}
	id := tr.begin("sweep.Encode", side, -1)
	ref.CSV()
	_, err := ref.JSON()
	tr.end(id)
	if err != nil {
		return err
	}
	if err := sideCache(rc, tr, side, p.rn, ref, p); err != nil {
		return err
	}
	tr.end(side)
	p.spans = tr.recorded()
	return nil
}

// composeScenario runs one scenario through the stepper under spans.
func composeScenario(tr *tracer, parent, req int, rn *sweep.Runner, s sweep.Scenario) (composed, error) {
	var out composed
	sc := tr.begin("scenario", parent, req)
	defer tr.end(sc)

	id := tr.begin("sweep.StepperConfig", sc, req)
	cfg, err := rn.StepperConfig(s)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.cfg = cfg

	stepSpan := 0 // the span allocation calls nest under
	newPolicy := cfg.NewPolicy
	cfg.NewPolicy = func(m power.Model) (alloc.Policy, error) {
		p, err := newPolicy(m)
		if err != nil {
			return nil, err
		}
		return &timedPolicy{Policy: p, span: "alloc." + s.Policy, tr: tr, parent: &stepSpan, req: req}, nil
	}

	id = tr.begin("topology.NewStepper", sc, req)
	stepSpan = id
	st, err := topology.NewStepper(cfg)
	tr.end(id)
	if err != nil {
		return out, err
	}
	rebal := rebalanced(st.Fleet(), cfg)
	for slot := 0; !st.Done(); slot++ {
		name := "topology.Step"
		boundary := slot == 0 || rebal && slot%cfg.Rebalance.EverySlots == 0
		if boundary {
			name = "topology.StepBoundary"
		}
		id := tr.begin(name, sc, req)
		stepSpan = id
		step, err := st.Step()
		tr.end(id)
		if err != nil {
			return out, err
		}
		if boundary {
			out.boundaries = append(out.boundaries, boundaryAt(slot, step))
		}
	}
	id = tr.begin("topology.Result", sc, req)
	out.fleet, err = st.Result()
	tr.end(id)
	return out, err
}

func boundaryAt(slot int, step topology.SlotStep) boundary {
	b := boundary{slot: slot, vms: make([]int, len(step.DCs))}
	for i := range step.DCs {
		b.vms[i] = step.DCs[i].VMs
	}
	return b
}

// rebalanced reports whether a run re-dispatches: a static run is one
// epoch spanning the whole window; a rebalanced multi-DC run opens one
// every EverySlots slots.
func rebalanced(f topology.Fleet, cfg topology.Config) bool {
	return cfg.Rebalance.Enabled() && len(f.DCs) > 1
}

// sideInputs generates each distinct trace and prediction set of the
// scenarios once, in expansion order, under spans, and requires each to
// equal what StepperConfig handed the stepper. Only the synthetic,
// churn-free traces the workloads use are supported.
func sideInputs(rc *runCtx, tr *tracer, parent int, scens []sweep.Scenario, runs []composed) error {
	type traceKey struct {
		seed      int64
		vms, days int
	}
	type predKey struct {
		traceKey
		historyDays, evalDays int
		predictor             string
	}
	traces := map[traceKey]*trace.Trace{}
	preds := map[predKey]bool{}
	for i, s := range scens {
		if s.TraceSpec != "synthetic" || s.ChurnFraction != 0 {
			return fmt.Errorf("composed passes support synthetic churn-free traces only, got %s", s.ID())
		}
		tk := traceKey{s.Seed, s.VMs, s.HistoryDays + s.EvalDays}
		pk := predKey{tk, s.HistoryDays, s.EvalDays, s.Predictor}
		if preds[pk] {
			continue
		}
		preds[pk] = true
		t := traces[tk]
		if t == nil {
			id := tr.begin("trace.Generate", parent, i)
			var err error
			t, err = trace.Generate(sweep.DCTraceConfig(s.Seed, s.VMs, s.HistoryDays+s.EvalDays))
			tr.end(id)
			if err != nil {
				return err
			}
			traces[tk] = t
			rc.op(reflect.DeepEqual(t, runs[i].cfg.Trace), "%s: the generated trace differs from the engine's", s.ID())
		}
		pred, err := predictorFor(s.Predictor)
		if err != nil {
			return err
		}
		id := tr.begin("dcsim.Predict", parent, i)
		ps, err := dcsim.Predict(t, pred, s.HistoryDays, s.EvalDays)
		tr.end(id)
		if err != nil {
			return err
		}
		rc.op(reflect.DeepEqual(ps, runs[i].cfg.Predictions), "%s: the predictions differ from the engine's", s.ID())
	}
	return nil
}

// predictorFor builds the forecast variant a predictor axis value
// names; nil is the oracle. sideInputs checks the result against the
// engine's own predictions, so a mapping that drifts from the engine's
// fails the traced run.
func predictorFor(name string) (forecast.Predictor, error) {
	switch name {
	case "", "oracle":
		return nil, nil
	case "arima":
		return &forecast.ARIMA{Cfg: forecast.DefaultConfig()}, nil
	case "seasonal-naive":
		return &forecast.SeasonalNaive{Period: trace.SamplesPerDay}, nil
	case "last-value":
		return forecast.LastValue{}, nil
	}
	return nil, fmt.Errorf("unknown predictor %q", name)
}

// sideDispatch repeats, under a span each, the dispatch that opened
// every epoch of every scenario, and requires it to place as many VMs
// per DC as the stepper reported after the epoch's first slot.
func sideDispatch(rc *runCtx, tr *tracer, parent int, scens []sweep.Scenario, runs []composed) error {
	for i, r := range runs {
		f := r.fleet.Fleet
		rebal := rebalanced(f, r.cfg)
		for _, b := range r.boundaries {
			id := tr.begin("topology.Dispatch", parent, i)
			asg, err := dispatchAt(f, r.cfg, b.slot, rebal)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("scenario %s, slot %d: %w", scens[i].ID(), b.slot, err)
			}
			same := len(asg) == len(b.vms)
			for dc := 0; same && dc < len(asg); dc++ {
				same = len(asg[dc]) == b.vms[dc]
			}
			rc.op(same, "scenario %s, slot %d: the standalone dispatch places %d VMs per DC, the stepper hosted %v",
				scens[i].ID(), b.slot, assignedCounts(asg), b.vms)
		}
	}
	return nil
}

func assignedCounts(a topology.Assignment) []int {
	n := make([]int, len(a))
	for i := range a {
		n[i] = len(a[i])
	}
	return n
}

// dispatchAt repeats the dispatch the stepper performs when it opens
// the epoch starting at slot, with the same arguments: the fleet's own
// dispatcher over the history window for a static run and for the first
// epoch, the rebalance dispatcher over the history plus the replayed
// slots at later epochs.
func dispatchAt(f topology.Fleet, cfg topology.Config, slot int, rebalanced bool) (topology.Assignment, error) {
	history := cfg.HistoryDays * trace.SamplesPerDay
	if !rebalanced {
		return topology.Dispatch(f, cfg.Trace, history)
	}
	if slot > 0 && cfg.Rebalance.Dispatcher != "" {
		f.Dispatcher = cfg.Rebalance.Dispatcher
	}
	return topology.DispatchAt(f, cfg.Trace, history+slot*trace.SamplesPerSlot, slot%24)
}

// sideCache puts every row of res into a fresh result store under its
// Runner.CacheKey and reads it back, one span per call, and requires
// the round trip to return the row unchanged.
func sideCache(rc *runCtx, tr *tracer, parent int, rn *sweep.Runner, res *sweep.Results, p *pass) error {
	dir, err := os.MkdirTemp(rc.dir, "store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := cache.Open(dir, cache.ModeRW)
	if err != nil {
		return err
	}
	for i, row := range res.Runs {
		s := row.Scenario
		key, ok := rn.CacheKey(s)
		if !ok {
			return fmt.Errorf("scenario %s has no cache key", s.ID())
		}
		data, err := json.Marshal(row)
		if err != nil {
			return err
		}
		id := tr.begin("cache.Put", parent, i)
		err = store.Put(key, data)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("cache.Get", parent, i)
		got, hit := store.Get(key)
		tr.end(id)
		back, ok := sweep.DecodeCachedRow(got, s)
		again, _ := json.Marshal(back)
		rc.op(hit && ok && bytes.Equal(again, data), "result store round trip of %s changed the row", s.ID())
		p.rowBytes += len(data)
		p.rows++
	}
	return nil
}

// timedPolicy is an allocation policy that records every Allocate call
// as a span under the step that made it.
type timedPolicy struct {
	alloc.Policy
	span   string
	tr     *tracer
	parent *int // the open step span of the scenario's goroutine
	req    int
}

func (p *timedPolicy) Allocate(vms []alloc.VMDemand, spec alloc.ServerSpec) (*alloc.Assignment, error) {
	id := p.tr.begin(p.span, *p.parent, p.req)
	defer p.tr.end(id)
	return p.Policy.Allocate(vms, spec)
}

// heapSampler tracks the highest live-heap size seen while it runs.
type heapSampler struct {
	quit chan struct{}
	done chan struct{}
	once sync.Once
	peak uint64 // written by the sampler goroutine before done closes
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-h.quit:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stop ends sampling, waits for the sampler to exit and returns the
// peak. It may be called more than once.
func (h *heapSampler) stop() uint64 {
	h.once.Do(func() { close(h.quit) })
	<-h.done
	return h.peak
}

// traceDist adds fleet-dist's distributed path to its traced run: one
// cold grid run through the coordinator with every worker's protocol
// calls timed by a wrapping dist.Backend. Its CSV must equal refCSV,
// the in-process run's. The engine path here is the coordinator, so
// its input builds (each dist worker builds its own Runner) replace the
// in-process ones in trace.builds and forecast.builds.
func traceDist(rc *runCtx, w *workload, refCSV string) {
	g := w.grid(rc.seed)
	tr := newTracer()
	c, err := dist.NewCoordinator(g, dist.Options{})
	if err != nil {
		rc.op(false, "fleet-dist: traced coordinator: %v", err)
		return
	}
	b := &timedBackend{Coordinator: c, tr: tr, open: map[string]int{}}
	if _, err := work(rc.ctx, b, workers); err != nil {
		rc.op(false, "fleet-dist: traced dist run: %v", err)
		return
	}
	b.closeOpen()
	res, err := c.Wait(rc.ctx)
	if err != nil {
		rc.op(false, "fleet-dist: traced dist run: %v", err)
		return
	}
	checkRows(rc, w.name, res.Runs)
	rc.op(res.CSV() == refCSV, "fleet-dist: traced dist run's CSV differs from the in-process run's")

	spans := tr.recorded()
	rc.spans = append(rc.spans, spans)
	st := byName(spans)
	total := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			if s := st[n]; s != nil {
				ns += s.total
			}
		}
		return ms(time.Duration(ns))
	}
	stats := c.Stats()
	rc.gate("trace.builds", float64(res.Load.TraceBuilds))
	rc.gate("forecast.builds", float64(res.Load.PredictBuilds))
	rc.extra("dist.lease_ms", "ms", total("dist.Lease"))
	rc.extra("dist.complete_ms", "ms", total("dist.Complete"))
	rc.extra("dist.exec_ms", "ms", total("dist.exec"))
	rc.extra("dist.idle_ms", "ms", total("dist.Lease", "dist.poll"))
	rc.extra("dist.leases", "count", float64(stats.Leases))
	rc.extra("dist.units", "count", float64(stats.Units))
	rc.table = selfTable(byName(rc.spans...))
}

// timedBackend is the coordinator as the dist workers see it, with each
// worker's Lease and Complete calls recorded as spans, and the time
// between them as either execution (after a lease that granted units)
// or a poll sleep (after one that granted none).
type timedBackend struct {
	*dist.Coordinator
	tr *tracer

	mu   sync.Mutex
	open map[string]int // worker -> its open exec or poll span
}

func (b *timedBackend) Lease(ctx context.Context, worker string, max int) (dist.LeaseReply, error) {
	b.endOpen(worker)
	id := b.tr.begin("dist.Lease", 0, workerIndex(worker))
	reply, err := b.Coordinator.Lease(ctx, worker, max)
	b.tr.end(id)
	switch {
	case err != nil || reply.Done && len(reply.Units) == 0:
	case len(reply.Units) > 0:
		b.startOpen(worker, "dist.exec")
	default:
		b.startOpen(worker, "dist.poll")
	}
	return reply, err
}

func (b *timedBackend) Complete(ctx context.Context, worker string, results []dist.UnitResult, load sweep.LoadStats) error {
	b.endOpen(worker)
	id := b.tr.begin("dist.Complete", 0, workerIndex(worker))
	defer b.tr.end(id)
	return b.Coordinator.Complete(ctx, worker, results, load)
}

func (b *timedBackend) startOpen(worker, name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.open[worker] = b.tr.begin(name, 0, workerIndex(worker))
}

func (b *timedBackend) endOpen(worker string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if id, ok := b.open[worker]; ok {
		b.tr.end(id)
		delete(b.open, worker)
	}
}

// closeOpen ends spans left open by workers that exited.
func (b *timedBackend) closeOpen() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for w, id := range b.open {
		b.tr.end(id)
		delete(b.open, w)
	}
}

func workerIndex(name string) int {
	var i int
	if _, err := fmt.Sscanf(name, "bench-%d", &i); err != nil {
		return -1
	}
	return i
}
