// Package evolution implements ONES's online evolutionary search (§3.2):
// a population of schedule genomes is evolved with refresh, uniform
// crossover, uniform mutation and reorder operations, scored by the SRUF
// (smallest remaining utilization first) objective of Equation 8 using
// Beta-distributed progress draws (Algorithm 1), and the best candidate is
// deployed.
package evolution

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/predictor"
)

// JobInfo is everything the search needs to know about one alive job.
type JobInfo struct {
	ID        cluster.JobID
	Limit     int // batch-size limit R_j (§3.3.2)
	MaxPerGPU int // largest local batch fitting one GPU
	// DeployedBatch is the job's batch size in the live deployment
	// (0 when waiting). §3.3.2 only allows rescaling "within a limited
	// range at each time", so candidate schedules may not grow a job
	// beyond GrowthFactor× this value in a single deployment.
	DeployedBatch    int
	EpochSize        float64 // ‖D‖; also the Y floor for jobs with no history
	ProcessedSamples float64 // Y_processed
	ProcessedTime    float64 // T_processed, executed seconds (eviction order)
	Dist             predictor.Dist
}

// GrowthFactor is the largest single-deployment batch growth. It matches
// perfmodel.AbruptFactor: growing faster injects gradient noise and spikes
// the loss (Figure 13).
const GrowthFactor = 4

// effLimit returns the job's effective batch ceiling for this round of
// candidate generation.
func (info *JobInfo) effLimit() int {
	r := info.Limit
	if info.DeployedBatch > 0 && r > GrowthFactor*info.DeployedBatch {
		r = GrowthFactor * info.DeployedBatch
	}
	return r
}

// Context carries the live cluster state into one evolution iteration.
//
// A Context also owns two lazily built caches — the sorted job-ID order
// and the throughput memo — that one iteration's concurrent workers
// share. Both assume the Jobs set, the Topo and the Throughput function
// stay fixed for the Context's lifetime; the ONES scheduler guarantees
// this by building a fresh Context for every scheduling decision, which
// is also what invalidates the caches on topology changes and
// progress-distribution refreshes.
type Context struct {
	Topo cluster.Topology
	// Jobs holds every alive (running or waiting) job. Jobs absent from
	// the map are treated as completed and cleaned out of genomes.
	Jobs map[cluster.JobID]*JobInfo
	// NewJobs lists jobs that have arrived and never been allocated,
	// in arrival order; refresh allocates them preferentially.
	NewJobs []cluster.JobID
	// Throughput returns X_j for job j at global batch B over c workers
	// spanning `servers` servers. It must be pure for the Context's
	// lifetime: evaluations are memoized per (j, B, c, servers).
	Throughput func(j cluster.JobID, B, c, servers int) float64
	// Rng is the master RNG: progress draws and Iterate's task plans.
	// Operators draw from their worker's RNG instead.
	Rng *rand.Rand

	// MemoHits / MemoMisses, when set, count throughput-memo outcomes
	// (see internal/obs). Telemetry only: scoring is unaffected, and the
	// nil default costs one branch per evaluation.
	MemoHits   *obs.Counter
	MemoMisses *obs.Counter

	ids  []cluster.JobID // sorted-job-ID cache; see jobIDs
	memo *throughputMemo // shared Throughput cache; see throughput
}

// throughputMemo caches Throughput evaluations for one Context. Candidate
// genomes overwhelmingly agree on most placements — mutation and
// crossover touch a handful of genes — so across one iteration's ~4K
// candidates the same (job, B, c, servers) points are evaluated over and
// over. The memo never invalidates within a Context; it is dropped with
// it.
type throughputMemo struct {
	mu sync.RWMutex
	m  map[throughputKey]float64
}

// throughputKey is the full argument tuple of Context.Throughput, which
// is pure over it for the life of a Context.
type throughputKey struct {
	job     cluster.JobID
	batch   int
	gpus    int
	servers int
}

// throughput evaluates X_j through the Context memo (or directly when the
// Context was never prepared — standalone operator calls in tests).
// Safe for concurrent use.
func (ctx *Context) throughput(j cluster.JobID, B, c, servers int) float64 {
	mm := ctx.memo
	if mm == nil {
		return ctx.Throughput(j, B, c, servers)
	}
	k := throughputKey{job: j, batch: B, gpus: c, servers: servers}
	mm.mu.RLock()
	x, ok := mm.m[k]
	mm.mu.RUnlock()
	if ok {
		ctx.MemoHits.Inc()
		return x
	}
	ctx.MemoMisses.Inc()
	x = ctx.Throughput(j, B, c, servers)
	mm.mu.Lock()
	mm.m[k] = x
	mm.mu.Unlock()
	return x
}

// prepare builds the shared caches before a fan-out, so concurrent
// workers only ever read the ID order and go through the memo's lock.
func (ctx *Context) prepare() {
	ctx.jobIDs()
	if ctx.memo == nil {
		ctx.memo = &throughputMemo{m: make(map[throughputKey]float64, 8*len(ctx.Jobs))}
	}
}

// jobIDs returns the alive job IDs in ascending order so that random
// draws are consumed in a deterministic sequence. The order is computed
// once per Context (Jobs must not change within its lifetime).
func (ctx *Context) jobIDs() []cluster.JobID {
	if ctx.ids == nil {
		ids := make([]cluster.JobID, 0, len(ctx.Jobs))
		for id := range ctx.Jobs {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		ctx.ids = ids
	}
	return ctx.ids
}

// SampleRhos draws one progress sample per alive job (Algorithm 1,
// lines 1–3). All candidates in one selection round are scored against the
// same draws.
func SampleRhos(ctx *Context) map[cluster.JobID]float64 {
	rhos := make(map[cluster.JobID]float64, len(ctx.Jobs))
	for _, id := range ctx.jobIDs() {
		rhos[id] = ctx.Jobs[id].Dist.Sample(ctx.Rng)
	}
	return rhos
}

// remainingWork returns the sampled remaining workload Y_j (Equation 7)
// with the epoch size as a floor so brand-new jobs are not free.
func remainingWork(info *JobInfo, rho float64) float64 {
	processed := info.ProcessedSamples
	if processed < info.EpochSize {
		processed = info.EpochSize
	}
	return processed * (1/rho - 1)
}

// worker is the working state of one fan-out goroutine: the schedule
// digest the operators, Reorder and Score read instead of scanning the
// genome once per job, fill's per-assignment GPU list, and the RNG the
// operators draw from, re-seeded for every task.
type worker struct {
	d   cluster.Digest
	buf []cluster.GPUID
	rng *rand.Rand
}

// Score computes the SRUF objective of Equation 8 for schedule s:
//
//	Σ_{j∈J_r}  Y_processed_j · c_j / X_j · (1/ρ_j − 1)
//
// Lower is better. A running job with zero throughput makes the schedule
// infeasible (+Inf).
//
// The paper's Equation 4 constrains candidates to assign every GPU; our
// operators may leave GPUs idle when job limits bind, so the raw sum is
// scaled by totalGPUs/usedGPUs — a half-used cluster carries twice the
// remaining utilization per allocated GPU. Without this, the objective
// would reward starving jobs of GPUs they could productively use.
//
// d is working storage and is overwritten.
func Score(s *cluster.Schedule, ctx *Context, rhos map[cluster.JobID]float64, d *cluster.Digest) float64 {
	d.Load(s)
	var total float64
	used := 0
	for i := range d.Jobs {
		a := &d.Jobs[i]
		info, ok := ctx.Jobs[a.Job]
		if !ok {
			continue // completed job still in genome; refresh will clean it
		}
		x := ctx.throughput(a.Job, a.Batch, a.GPUs, a.Servers)
		if x <= 0 {
			return math.Inf(1)
		}
		rho, ok := rhos[a.Job]
		if !ok || rho <= 0 {
			rho = 0.5
		}
		used += a.GPUs
		total += remainingWork(info, rho) * float64(a.GPUs) / x
	}
	if used > 0 {
		total *= float64(s.NumGPUs()) / float64(used)
	}
	return total
}

// assign places job j on the given GPUs with global batch B distributed as
// evenly as integer slots allow. B is clamped to the feasible range
// [len(gpus), len(gpus)*MaxPerGPU]; the batch actually deployed is
// returned.
func assign(s *cluster.Schedule, info *JobInfo, gpus []cluster.GPUID, B int) int {
	c := len(gpus)
	if c == 0 {
		return 0
	}
	if B < c {
		B = c
	}
	if max := c * info.MaxPerGPU; B > max {
		B = max
	}
	base := B / c
	rem := B % c
	for i, g := range gpus {
		b := base
		if i < rem {
			b++
		}
		s.SetSlot(g, info.ID, b)
	}
	return B
}

// normalize removes completed jobs from s and enforces R_j: any job with
// B_j > R_j is scaled down by c_j − ⌊R_j·c_j/B_j⌋ GPUs (the paper's refresh
// step 2) and its batch reassigned within the limit. The digest is
// loaded once up front: each job's correction touches only its own slots,
// so the other entries stay valid as the loop mutates s.
func normalize(s *cluster.Schedule, ctx *Context, d *cluster.Digest) {
	d.Load(s)
	for i := range d.Jobs {
		a := &d.Jobs[i]
		info, ok := ctx.Jobs[a.Job]
		if !ok {
			s.Evict(a.Job)
			continue
		}
		gpus := a.GPUIDs
		B := a.Batch
		c := a.GPUs
		target := B
		keep := c
		if info.Limit < B {
			keep = info.Limit * c / B // ⌊R·c/B⌋
			if keep < 1 {
				keep = 1
			}
			target = info.Limit
		}
		if maxB := keep * info.MaxPerGPU; target > maxB {
			target = maxB
		}
		if keep == c && target == B {
			continue
		}
		for _, g := range gpus[keep:] {
			s.Clear(g)
		}
		assign(s, info, gpus[:keep], target)
	}
}

// fillOption is one way to consume idle GPUs: starting a waiting job or
// growing a running one toward its limit. For resumes, score is the job's
// sampled remaining footprint Y/X (lower first — shortest remaining
// first). For growths, score is the sampled throughput gain per added GPU
// (higher first).
type fillOption struct {
	job    cluster.JobID
	gpus   int // additional GPUs consumed
	batch  int // resulting global batch
	resume bool
	score  float64
}

// fill consumes idle GPUs in two phases (refresh step 4, Figure 7):
// waiting jobs are resumed first — queuing hurts JCT directly and resuming
// on one GPU is cheap — shortest sampled remaining time first (the
// Algorithm 1 minimization over {Δφ_j·Y_j}); any capacity still left then
// grows running jobs toward their limits by largest sampled utilization
// gain.
//
// The idle list is computed once and consumed incrementally: assign clamps
// B ≥ c, so every idle GPU an option consumes receives a positive batch
// and the remaining idle set is exactly the unconsumed suffix.
func fill(s *cluster.Schedule, ctx *Context, w *worker) {
	w.d.Load(s)
	idle := w.d.Idle
	for len(idle) > 0 {
		opt, ok := bestFillOption(ctx, w, len(idle))
		if !ok {
			return
		}
		// The job's current GPUs (index order) followed by the consumed
		// idle prefix.
		w.buf = w.buf[:0]
		if a, ok := w.d.Lookup(opt.job); ok {
			w.buf = append(w.buf, a.GPUIDs...)
		}
		w.buf = append(w.buf, idle[:opt.gpus]...)
		assign(s, ctx.Jobs[opt.job], w.buf, opt.batch)
		// Refresh the job's entry in place; no other job's slots moved.
		w.d.Update(s, opt.job)
		idle = idle[opt.gpus:]
	}
}

// bestFillOption returns the next fill action: the waiting job with the
// least sampled remaining work if any can start, else the growth with the
// largest sampled gain.
func bestFillOption(ctx *Context, w *worker, idle int) (fillOption, bool) {
	var bestResume, bestGrow fillOption
	var haveResume, haveGrow bool
	for _, id := range ctx.jobIDs() {
		info := ctx.Jobs[id]
		opt, ok := expandOption(ctx, &w.d, info, idle)
		if !ok {
			continue
		}
		rho := info.Dist.Sample(w.rng)
		work := remainingWork(info, rho)
		if opt.resume {
			opt.score *= work // remaining seconds at the resume rate
			if !haveResume || opt.score < bestResume.score {
				bestResume, haveResume = opt, true
			}
		} else {
			opt.score *= work // throughput gain weighted by remaining work
			if opt.score > 0 && (!haveGrow || opt.score > bestGrow.score) {
				bestGrow, haveGrow = opt, true
			}
		}
	}
	if haveResume {
		return bestResume, true
	}
	return bestGrow, haveGrow
}

// expandOption builds the expansion candidate for one job from the
// digest, or reports false when the job cannot use more resources.
func expandOption(ctx *Context, d *cluster.Digest, info *JobInfo, idle int) (fillOption, bool) {
	var c, B, servers int
	if a, ok := d.Lookup(info.ID); ok {
		c, B, servers = a.GPUs, a.Batch, a.Servers
	}
	if c == 0 {
		// Waiting job: resume on one GPU within its limit. Its added
		// utilization is its whole remaining footprint at that rate.
		batch := info.effLimit()
		if batch > info.MaxPerGPU {
			batch = info.MaxPerGPU
		}
		if batch < 1 {
			batch = 1
		}
		x := ctx.throughput(info.ID, batch, 1, 1)
		if x <= 0 {
			return fillOption{}, false
		}
		return fillOption{job: info.ID, gpus: 1, batch: batch, resume: true, score: 1 / x}, true
	}
	limit := info.effLimit()
	if B >= limit {
		return fillOption{}, false // already at the limit
	}
	// Running job: grow to R_j with ⌊R·c/B⌋ − c extra GPUs (Figure 7).
	newC := limit * c / B
	extra := newC - c
	if extra < 1 {
		return fillOption{}, false
	}
	if extra > idle {
		extra = idle
		newC = c + extra
	}
	newB := limit
	if maxB := newC * info.MaxPerGPU; newB > maxB {
		newB = maxB
	}
	srv := ctx.Topo.NumServers()
	if srv > 1 && newC <= ctx.Topo.MaxServerGPUs() {
		srv = 1
	}
	// Growth utility: absolute throughput gained per added GPU. Growth
	// that does not increase throughput is pointless — skip it.
	oldX := ctx.throughput(info.ID, B, c, servers)
	newX := ctx.throughput(info.ID, newB, newC, srv)
	if newX <= oldX || newX <= 0 {
		return fillOption{}, false
	}
	gain := (newX - oldX) / float64(extra)
	return fillOption{job: info.ID, gpus: extra, batch: newB, score: gain}, true
}

// refresh applies the paper's refresh operation to s in place: clean up
// completed jobs, enforce limits, allocate new jobs preferentially (taking
// GPUs from the longest-running jobs if needed), then fill idle GPUs.
func refresh(s *cluster.Schedule, ctx *Context, w *worker) {
	normalize(s, ctx, &w.d)
	allocateNewJobs(s, ctx, &w.d)
	fill(s, ctx, w)
}

// allocateNewJobs gives each never-scheduled job one GPU (refresh step 3).
// When too few GPUs are idle, GPUs are taken from the jobs with the
// largest T_processed to avoid starving new arrivals.
func allocateNewJobs(s *cluster.Schedule, ctx *Context, d *cluster.Digest) {
	d.Load(s)
	var pending []*JobInfo
	for _, id := range ctx.NewJobs {
		info, ok := ctx.Jobs[id]
		if _, running := d.Lookup(id); !ok || running {
			continue
		}
		pending = append(pending, info)
	}
	if len(pending) == 0 {
		return
	}
	for need := len(pending) - len(d.Idle); need > 0; need-- {
		victim := longestRunning(d, ctx)
		if victim == nil {
			break
		}
		shrinkByOne(s, ctx, victim)
		d.Load(s)
	}
	for i, info := range pending {
		if i >= len(d.Idle) {
			break
		}
		batch := info.effLimit()
		if batch > info.MaxPerGPU {
			batch = info.MaxPerGPU
		}
		assign(s, info, d.Idle[i:i+1], batch)
	}
}

// longestRunning returns the running job with the largest processed time,
// or nil when the schedule is empty.
func longestRunning(d *cluster.Digest, ctx *Context) *cluster.Alloc {
	var best *cluster.Alloc
	var bestT float64 = -1
	for i := range d.Jobs {
		info, ok := ctx.Jobs[d.Jobs[i].Job]
		if !ok {
			continue
		}
		if info.ProcessedTime > bestT {
			bestT = info.ProcessedTime
			best = &d.Jobs[i]
		}
	}
	return best
}

// shrinkByOne removes one GPU from job a, re-spreading its batch; a
// single-GPU job is evicted entirely (it becomes waiting).
func shrinkByOne(s *cluster.Schedule, ctx *Context, a *cluster.Alloc) {
	gpus := a.GPUIDs
	if len(gpus) <= 1 {
		s.Evict(a.Job)
		return
	}
	keep := gpus[:len(gpus)-1]
	s.Clear(gpus[len(gpus)-1])
	newB := a.Batch * len(keep) / len(gpus)
	assign(s, ctx.Jobs[a.Job], keep, newB)
}

// crossover performs the uniform crossover of Figure 8 on copies of the
// two parents: on each GPU an independent fair coin decides whether the
// children swap genes. Children are normalized and filled so they remain
// feasible.
func crossover(c1, c2 *cluster.Schedule, ctx *Context, w *worker) {
	for g := cluster.GPUID(0); int(g) < c1.NumGPUs(); g++ {
		if w.rng.Intn(2) == 0 {
			continue
		}
		ga, gb := c1.Slot(g), c2.Slot(g)
		c1.SetSlot(g, gb.Job, gb.Batch)
		c2.SetSlot(g, ga.Job, ga.Batch)
	}
	normalize(c1, ctx, &w.d)
	normalize(c2, ctx, &w.d)
	fill(c1, ctx, w)
	fill(c2, ctx, w)
}

// mutate applies the uniform mutation of Figure 9 to s in place: every
// running job is preempted with probability theta and the freed GPUs are
// refilled with waiting or other running jobs.
func mutate(s *cluster.Schedule, ctx *Context, theta float64, w *worker) {
	w.d.Load(s)
	for i := range w.d.Jobs {
		if w.rng.Float64() < theta {
			s.Evict(w.d.Jobs[i].Job)
		}
	}
	normalize(s, ctx, &w.d)
	fill(s, ctx, w)
}

// Engine runs the iterative evolution loop of Figure 5.
type Engine struct {
	// K is the population size; the paper suggests matching the cluster's
	// GPU count.
	K int
	// Theta is the per-job mutation (preemption) probability.
	Theta float64
	// Parallelism is the number of goroutines generating and scoring
	// candidates (≤1 ⇒ serial). Parallel iteration stays deterministic:
	// each candidate's randomness comes from a seed drawn serially from
	// the context RNG before the fan-out, and ties in the final ranking
	// break by candidate index.
	Parallelism int
	// DisableReorder turns off the reorder operator (ablation switch).
	DisableReorder bool
	// DisableSampling scores with distribution means instead of Beta
	// draws (ablation switch).
	DisableSampling bool
	// Cancel, when set, is polled between candidate tasks; once it
	// reports true Iterate stops generating and returns the incumbent
	// champion immediately. Cancellation must be monotonic (it never
	// reverts to false), which guarantees the partially filled candidate
	// set is never scored. Results under cancellation are stale, not
	// wrong — callers abandon the run anyway.
	Cancel func() bool

	// Generations / Candidates, when set, count Iterate rounds and the
	// candidates they generate (see internal/obs). Telemetry only — the
	// search is unaffected — and nil-safe, so untouched engines pay one
	// branch per round.
	Generations *obs.Counter
	Candidates  *obs.Counter

	pop []*cluster.Schedule

	// Per-Iterate working storage, reused across rounds: one worker per
	// fan-out goroutine, then the task, candidate and ranking buffers.
	workers []*worker
	tasks   []genTask
	cands   []*cluster.Schedule
	scores  []float64
	order   []int
	// clonePool recycles the genomes of candidates that lost selection as
	// the backing storage for the next round's clones. Only rejected
	// candidates enter the pool: the selected population — including the
	// returned champion — may be retained by callers and is never reused.
	// Without it BenchmarkIterate allocates 137 times per round, not 41.
	clonePool sync.Pool
}

// genTask describes one pre-seeded candidate generation: the parent
// picks and a dedicated RNG seed are drawn serially from the master RNG,
// so the fan-out may execute the tasks in any order — or in parallel —
// without changing any output.
type genTask struct {
	kind int // 0 refresh, 1 crossover pair, 2 mutate
	a, b *cluster.Schedule
	seed int64
	outA int // candidate slot(s)
	outB int
}

// cancelled reports whether the optional cancellation probe fired.
func (e *Engine) cancelled() bool { return e.Cancel != nil && e.Cancel() }

// NewEngine returns an engine with population size k and mutation rate
// theta.
func NewEngine(k int, theta float64) *Engine {
	if k < 1 {
		k = 1
	}
	return &Engine{K: k, Theta: theta}
}

// Population exposes the current population (read-only use).
func (e *Engine) Population() []*cluster.Schedule { return e.pop }

// Init seeds the population with K refreshed-empty schedules. Because fill
// draws random progress samples, the initial population is diverse even
// though every member starts from the empty genome.
func (e *Engine) Init(ctx *Context) {
	// The initial refreshes draw from the master RNG in sequence.
	w := &worker{rng: ctx.Rng}
	e.pop = e.pop[:0]
	for i := 0; i < e.K; i++ {
		s := cluster.NewSchedule(ctx.Topo)
		refresh(s, ctx, w)
		e.pop = append(e.pop, s)
	}
}

// clone returns a working copy of s for a new candidate, reusing a
// rejected candidate's storage when one is available.
func (e *Engine) clone(s *cluster.Schedule) *cluster.Schedule {
	if v := e.clonePool.Get(); v != nil {
		c := v.(*cluster.Schedule)
		c.CopyFrom(s)
		return c
	}
	return s.Clone()
}

// Iterate runs one evolution round: derive candidates from the current
// population with the four operators, select the best K by sampled score,
// and return the champion S*.
func (e *Engine) Iterate(ctx *Context) *cluster.Schedule {
	// A topology change (elastic capacity, node failure) invalidates the
	// whole population: its genomes are defined over the old GPU axis.
	// Restart the search from fresh genomes on the new topology.
	if len(e.pop) == 0 || !e.pop[0].Topology().Equal(ctx.Topo) {
		e.Init(ctx)
	}
	ctx.prepare()
	// Describe every candidate generation serially (parent choices and a
	// dedicated RNG seed come from the master RNG) so the fan-out below is
	// free to run in any order.
	nCand := len(e.pop) + 2*e.K + e.K
	e.Generations.Inc()
	e.Candidates.Add(uint64(nCand))
	tasks := e.tasks[:0]
	slot := 0
	for _, s := range e.pop {
		tasks = append(tasks, genTask{kind: 0, a: s, seed: ctx.Rng.Int63(), outA: slot})
		slot++
	}
	for i := 0; i < e.K; i++ {
		a := e.pop[ctx.Rng.Intn(len(e.pop))]
		b := e.pop[ctx.Rng.Intn(len(e.pop))]
		tasks = append(tasks, genTask{kind: 1, a: a, b: b, seed: ctx.Rng.Int63(), outA: slot, outB: slot + 1})
		slot += 2
	}
	for i := 0; i < e.K; i++ {
		a := e.pop[ctx.Rng.Intn(len(e.pop))]
		tasks = append(tasks, genTask{kind: 2, a: a, seed: ctx.Rng.Int63(), outA: slot})
		slot++
	}
	e.tasks = tasks
	if cap(e.cands) < nCand {
		e.cands = make([]*cluster.Schedule, nCand)
	}
	candidates := e.cands[:nCand]
	e.forEach(len(tasks), func(w *worker, i int) {
		t := tasks[i]
		// Seed fully resets the source, so the task draws exactly the
		// stream rand.New(rand.NewSource(t.seed)) would.
		w.rng.Seed(t.seed)
		a := e.clone(t.a)
		candidates[t.outA] = a
		switch t.kind {
		case 0:
			refresh(a, ctx, w)
		case 1:
			b := e.clone(t.b)
			candidates[t.outB] = b
			crossover(a, b, ctx, w)
		default:
			mutate(a, ctx, e.Theta, w)
		}
		if !e.DisableReorder {
			a.Reorder(&w.d)
			if t.kind == 1 {
				candidates[t.outB].Reorder(&w.d)
			}
		}
	})
	if e.cancelled() {
		// The probe is monotonic, so firing here proves some workers may
		// have skipped tasks: candidate slots can be stale and must not be
		// scored. Keep the population and return the incumbent champion.
		return e.pop[0]
	}

	// Selection: score all candidates against one set of progress draws,
	// keep the best K.
	rhos := e.progressDraws(ctx)
	if cap(e.scores) < nCand {
		e.scores = make([]float64, nCand)
	}
	scores := e.scores[:nCand]
	e.forEach(nCand, func(w *worker, i int) { scores[i] = Score(candidates[i], ctx, rhos, &w.d) })
	if e.cancelled() {
		return e.pop[0]
	}
	if cap(e.order) < nCand {
		e.order = make([]int, nCand)
	}
	order := e.order[:nCand]
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, k int) bool { return scores[order[i]] < scores[order[k]] })
	keep := e.K
	if keep > nCand {
		keep = nCand
	}
	next := make([]*cluster.Schedule, keep)
	for i := 0; i < keep; i++ {
		next[i] = candidates[order[i]]
	}
	// Retire the rejected candidates into the clone pool. They were all
	// created inside this round, so no caller can hold a reference.
	for i := keep; i < nCand; i++ {
		e.clonePool.Put(candidates[order[i]])
	}
	e.pop = next
	return e.pop[0]
}

// forEach runs fn over [0, n) — serially, or on Parallelism goroutines,
// each handing fn its own worker. The optional Cancel probe is polled
// before each call; tasks after it fires are skipped (callers must not
// consume their outputs).
func (e *Engine) forEach(n int, fn func(w *worker, i int)) {
	goroutines := e.Parallelism
	if goroutines > n {
		goroutines = n
	}
	if goroutines < 1 {
		goroutines = 1
	}
	for len(e.workers) < goroutines {
		e.workers = append(e.workers, &worker{rng: rand.New(rand.NewSource(0))})
	}
	if goroutines == 1 {
		for i := 0; i < n; i++ {
			if e.cancelled() {
				return
			}
			fn(e.workers[0], i)
		}
		return
	}
	var wg sync.WaitGroup
	var next int64
	for _, w := range e.workers[:goroutines] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if e.cancelled() {
					return
				}
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}

// progressDraws returns ρ samples (or distribution means under the
// sampling ablation).
func (e *Engine) progressDraws(ctx *Context) map[cluster.JobID]float64 {
	if !e.DisableSampling {
		return SampleRhos(ctx)
	}
	rhos := make(map[cluster.JobID]float64, len(ctx.Jobs))
	for id, info := range ctx.Jobs {
		m := info.Dist.Mean()
		if m <= 0 {
			m = 1e-6
		} else if m >= 1 {
			m = 1 - 1e-6
		}
		rhos[id] = m
	}
	return rhos
}
