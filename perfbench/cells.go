package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/schedulers"
	"repro/internal/simulator"
	"repro/internal/workload"
)

// cellSpec is one simulation cell: a scheduler replaying a generated
// trace on the 64-GPU Longhorn topology (16 servers × 4 GPUs).
type cellSpec struct {
	sched        string
	traceSeed    int64
	jobs         int
	interarrival float64
	population   int // ONES K (0 for the baselines)
}

func (c cellSpec) String() string {
	return fmt.Sprintf("%s/trace%d/%djobs", c.sched, c.traceSeed, c.jobs)
}

// cellSet is a cell workload's inputs: the cells one pass replays, and
// the cell of the same size each set-up runs to warm the process.
type cellSet struct {
	cells  []cellSpec
	warmup cellSpec
}

// onesSearchCells is the ones-search input: ONES cells as in the
// paper's testbed (K = 32, Table 2 mix at 12 s mean interarrival), one
// trace seed per cell.
func onesSearchCells(seed int64, size string) cellSet {
	n, jobs, k := 16, 16, 32
	if size == "tiny" {
		n, jobs, k = 1, 6, 8
	}
	var s cellSet
	for i := 0; i < n; i++ {
		s.cells = append(s.cells, cellSpec{"ones", seed*1000 + int64(i) + 1, jobs, 12, k})
	}
	s.warmup = cellSpec{"ones", seed*1000 + 999, jobs, 12, k}
	return s
}

// baselineSimCells is the baseline-sim input: the paper's three
// baselines each replay the same long trace, overloaded at 6 s mean
// interarrival so that over a hundred jobs are alive on average, for a
// few trace seeds.
func baselineSimCells(seed int64, size string) cellSet {
	n, jobs := 8, 300
	if size == "tiny" {
		n, jobs = 1, 30
	}
	var s cellSet
	for i := 0; i < n; i++ {
		for _, sched := range []string{"tiresias", "optimus", "drl"} {
			s.cells = append(s.cells, cellSpec{sched, seed*1000 + int64(i) + 1, jobs, 6, 0})
		}
	}
	s.warmup = cellSpec{"tiresias", seed*1000 + 999, jobs, 6, 0}
	return s
}

// cellWorkload runs cells back to back from one client, the way
// engine.Runner runs a lone cell: workload.Generate, schedulers.New,
// simulator.RunContext.
type cellWorkload struct {
	set       cellSet
	hooks     hooks
	setupFail []string // failed checks of the warm-up cells
}

func newCellWorkload(set cellSet, h hooks) *cellWorkload {
	return &cellWorkload{set: set, hooks: h}
}

func (w *cellWorkload) close() {}

// setup warms the process with one small cell.
func (w *cellWorkload) setup(ctx context.Context, i int, _ bool) error {
	if _, err := w.runCell(ctx, w.set.warmup, nil); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.setupFail = append(w.setupFail, fmt.Sprintf("set-up %d: warm-up cell %s: %v", i, w.set.warmup, err))
	}
	return nil
}

// phase cycles through the cells until the phase has lasted `seconds`,
// always completing at least one pass.
func (w *cellWorkload) phase(ctx context.Context, _ int, traced bool, seconds float64) (*phaseResult, error) {
	p := newPhaseResult()
	if !traced {
		p.failures = append(p.failures, w.setupFail...)
	}
	var acct *phaseResult
	if traced {
		acct = p
	}
	jcts := make([]float64, len(w.set.cells))
	before := memSnapshot()
	start := time.Now()
	for n := 0; n < len(w.set.cells) || time.Since(start).Seconds() < seconds; n++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		i := n % len(w.set.cells)
		c := w.set.cells[i]
		p.attempted++
		out, err := w.runCell(ctx, c, acct)
		if err != nil {
			p.fail("%s: %v", c, err)
			continue
		}
		p.ops = append(p.ops, opRecord{kindCell, out.sec})
		if n < len(w.set.cells) {
			jcts[i] = out.meanJCT
			p.digests[c.String()] = out.digest
		} else if out.meanJCT != jcts[i] {
			p.fail("%s: rerun gave mean JCT %v, first run %v", c, out.meanJCT, jcts[i])
		}
	}
	p.seconds = time.Since(start).Seconds()
	p.mem = memSince(before)
	p.simMeanJCT = mean(jcts)
	return p, nil
}

// cellOutcome is one checked cell.
type cellOutcome struct {
	sec     float64 // Generate + New + RunContext
	meanJCT float64
	digest  string // sha256 of the JSON-encoded simulator.Result
}

// runCell runs and checks one cell. With acct set, the cell runs traced:
// the benchmark records a span around each layer call — generate, new,
// run-context and one decide per Decide call, under which ONES opens its
// evolution-interval — and folds the span tree into acct.
func (w *cellWorkload) runCell(ctx context.Context, c cellSpec, acct *phaseResult) (cellOutcome, error) {
	var tracer *obs.Tracer
	var root *obs.Span
	var reg *obs.Registry
	if acct != nil {
		tracer = obs.NewTracer(1, maxSpans)
		_, root = tracer.Start(ctx, "op", "op")
		reg = obs.NewRegistry()
	}
	t0 := time.Now()
	sp := root.StartChild("generate")
	tr, err := workload.Generate(workload.Config{Seed: c.traceSeed, NumJobs: c.jobs, MeanInterarrival: c.interarrival, MaxReqGPUs: 8})
	sp.End()
	if err != nil {
		return cellOutcome{}, err
	}
	sp = root.StartChild("new")
	sched, err := schedulers.New(c.sched, schedulers.Config{
		Seed:        c.traceSeed,
		ArrivalRate: 1 / c.interarrival,
		Population:  c.population,
		Obs:         reg,
	})
	sp.End()
	if err != nil {
		return cellOutcome{}, err
	}
	runSpan := root.StartChild("run-context")
	var ts *tracedScheduler
	if acct != nil {
		ts = &tracedScheduler{Scheduler: sched, parent: runSpan}
		ts.ones, _ = sched.(*schedulers.ONES)
		sched = ts
	}
	if w.hooks.wrap != nil {
		sched = w.hooks.wrap(sched)
	}
	cfg := simulator.DefaultConfig(tr)
	cfg.Topo = cluster.Longhorn()
	res, err := simulator.RunContext(ctx, cfg, sched)
	runSpan.End()
	sec := time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return cellOutcome{}, err
	}
	if w.hooks.mutate != nil {
		w.hooks.mutate(res)
	}
	if err := checkCell(tr, res); err != nil {
		return cellOutcome{}, err
	}
	data, err := json.Marshal(res)
	if err != nil {
		return cellOutcome{}, err
	}
	out := cellOutcome{sec: sec, meanJCT: res.MeanJCT(), digest: digest(data)}
	if acct != nil {
		tree, _ := tracer.Tree("op")
		if tree.DroppedSpans != 0 {
			return out, fmt.Errorf("tracer dropped %d spans", tree.DroppedSpans)
		}
		accountCell(acct, fromObs(tree), ts, reg, res)
	}
	return out, nil
}

// accountCell folds one traced cell into the phase's per-layer sums.
func accountCell(p *phaseResult, op *span, ts *tracedScheduler, reg *obs.Registry, res *simulator.Result) {
	run := op.child("run-context")
	p.add("cells", 1)
	p.add("workload.generate_s", op.child("generate").dur)
	p.add("schedulers.new_s", op.child("new").dur)
	p.add("simulator.self_s", run.self())
	p.add("simulator.decisions", float64(ts.decisions))
	p.add("view_jobs", float64(ts.viewJobs))
	p.add("simulator.reconfigs", float64(res.Reconfigs))
	run.each("decide", func(d *span) {
		self := d.self()
		p.add("schedulers.decide_s", d.dur)
		p.sample("decide_s", d.dur)
		p.add("decide_self_s", self)
		d.each("evolution-interval", func(e *span) { p.add("evolution.interval_s", e.dur) })
		if ts.ones != nil {
			p.add("ones.decide_self_s", self)
			if d.attrs["refit"] != "" {
				p.add("predictor.refit_self_s", self)
			}
		}
	})
	if o := ts.ones; o != nil {
		p.add("ones_cells", 1)
		p.add("ones.decisions", float64(o.Stats.Decisions))
		p.add("ones.deployments", float64(o.Stats.Deployments))
		p.add("ones.gated", float64(o.Stats.GatedByEpochs))
		p.add("predictor.fits", float64(o.Predictor().Fits()))
		p.add("predictor.training_size", float64(o.Predictor().TrainingSize()))
		p.add("evolution.generations", float64(reg.CounterValue("evolution_generations_total")))
		p.add("evolution.candidates", float64(reg.CounterValue("evolution_candidates_total")))
		p.add("evolution.memo_hits", float64(reg.CounterValue("evolution_memo_hits_total")))
		p.add("evolution.memo_misses", float64(reg.CounterValue("evolution_memo_misses_total")))
	}
}

// tracedScheduler records a "decide" span around each Decide call. For
// ONES it points the scheduler's Span at that span, so the
// evolution-interval ONES already records nests underneath, and marks
// the calls in which the predictor refitted.
type tracedScheduler struct {
	simulator.Scheduler
	parent    *obs.Span
	ones      *schedulers.ONES
	decisions int
	viewJobs  int
}

func (t *tracedScheduler) Decide(tr simulator.Trigger, v *simulator.View) *cluster.Schedule {
	sp := t.parent.StartChild("decide")
	fits := 0
	if t.ones != nil {
		t.ones.Span = sp
		fits = t.ones.Predictor().Fits()
	}
	t.decisions++
	t.viewJobs += len(v.Jobs)
	next := t.Scheduler.Decide(tr, v)
	if t.ones != nil && t.ones.Predictor().Fits() > fits {
		sp.Annotate("refit", "1")
	}
	sp.End()
	return next
}

// SetCancel forwards the cancellation probe RunContext hands a
// CancelAware scheduler.
func (t *tracedScheduler) SetCancel(cancelled func() bool) {
	if ca, ok := t.Scheduler.(simulator.CancelAware); ok {
		ca.SetCancel(cancelled)
	}
}

// floatSlack is the relative rounding slack of the inequality checks:
// Exec and busy GPU-seconds are sums of many segments, so they can exceed
// a bound they equal by a few ulps.
const floatSlack = 1e-12

// jobOutcome is one job's metrics, in the form both result types share.
type jobOutcome struct {
	id                      int
	submit, done, jct, exec float64
}

// checkCell checks a cell result against its trace.
func checkCell(tr *workload.Trace, res *simulator.Result) error {
	submit := make(map[int]float64, len(tr.Jobs))
	for _, j := range tr.Jobs {
		submit[j.ID] = j.Submit
	}
	jobs := make([]jobOutcome, len(res.Jobs))
	for i, m := range res.Jobs {
		jobs[i] = jobOutcome{int(m.ID), m.Submit, m.Done, m.JCT, m.Exec}
	}
	return checkJobs(res.Truncated, res.Unfinished, jobs, submit, res.BusyGPUSeconds, res.CapacityGPUSeconds)
}

// checkJobs checks the conservation laws a finished simulation obeys:
// nothing truncated or unfinished, exactly one metric per submitted job,
// each submitted when the input says (when known: NaN skips it), done no earlier than submitted and
// holding GPUs no longer than it existed, and no more GPU-seconds busy
// than the cluster had.
func checkJobs(truncated bool, unfinished int, jobs []jobOutcome, submit map[int]float64, busy, capacity float64) error {
	if truncated || unfinished != 0 {
		return fmt.Errorf("result truncated with %d jobs unfinished", unfinished)
	}
	if len(jobs) != len(submit) {
		return fmt.Errorf("%d job metrics for %d submitted jobs", len(jobs), len(submit))
	}
	seen := make(map[int]bool, len(jobs))
	for _, j := range jobs {
		s, ok := submit[j.id]
		switch {
		case !ok:
			return fmt.Errorf("job %d was never submitted", j.id)
		case seen[j.id]:
			return fmt.Errorf("job %d reported twice", j.id)
		case !math.IsNaN(s) && j.submit != s:
			return fmt.Errorf("job %d submitted at %v, input says %v", j.id, j.submit, s)
		case j.done < j.submit:
			return fmt.Errorf("job %d done at %v before its submission at %v", j.id, j.done, j.submit)
		case j.exec > j.jct*(1+floatSlack):
			return fmt.Errorf("job %d executed %v s, longer than its JCT %v s", j.id, j.exec, j.jct)
		}
		seen[j.id] = true
	}
	if busy > capacity*(1+floatSlack) {
		return fmt.Errorf("busy %v GPU-s exceeds capacity %v GPU-s", busy, capacity)
	}
	return nil
}
