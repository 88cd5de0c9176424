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
// and the throughput memo — that one iteration's concurrent sub-contexts
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
	Rng        *rand.Rand

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

// prepare builds the shared caches on the master Context before a
// fan-out. Sub-contexts are struct copies, so they inherit the filled
// pointers and all workers share one ID slice and one memo.
func (ctx *Context) prepare() {
	if ctx.ids == nil {
		ctx.ids = sortIDs(ctx.Jobs)
	}
	if ctx.memo == nil {
		ctx.memo = &throughputMemo{m: make(map[throughputKey]float64, 8*len(ctx.Jobs))}
	}
}

// jobIDs returns the alive job IDs in ascending order so that random
// draws are consumed in a deterministic sequence. The order is computed
// once per Context (Jobs must not change within its lifetime).
func (ctx *Context) jobIDs() []cluster.JobID {
	if ctx.ids == nil {
		ctx.ids = sortIDs(ctx.Jobs)
	}
	return ctx.ids
}

func sortIDs(jobs map[cluster.JobID]*JobInfo) []cluster.JobID {
	ids := make([]cluster.JobID, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
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

// evalScratch holds the reusable buffers for generating and scoring one
// candidate: the schedule digest the operators and Score read instead of
// scanning the genome once per job, and fill's per-assignment GPU list.
type evalScratch struct {
	d   cluster.Digest
	buf []cluster.GPUID
}

var scratchPool = sync.Pool{
	New: func() any { return new(evalScratch) },
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
func Score(s *cluster.Schedule, ctx *Context, rhos map[cluster.JobID]float64) float64 {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	sc.d.Load(s)
	var total float64
	used := 0
	for i := range sc.d.Jobs {
		a := &sc.d.Jobs[i]
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
func normalize(s *cluster.Schedule, ctx *Context, sc *evalScratch) {
	sc.d.Load(s)
	for i := range sc.d.Jobs {
		a := &sc.d.Jobs[i]
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
func fill(s *cluster.Schedule, ctx *Context, sc *evalScratch) {
	sc.d.Load(s)
	idle := sc.d.Idle
	for len(idle) > 0 {
		opt, ok := bestFillOption(ctx, &sc.d, len(idle))
		if !ok {
			return
		}
		// The job's current GPUs (index order) followed by the consumed
		// idle prefix.
		sc.buf = sc.buf[:0]
		if a, ok := sc.d.Lookup(opt.job); ok {
			sc.buf = append(sc.buf, a.GPUIDs...)
		}
		sc.buf = append(sc.buf, idle[:opt.gpus]...)
		assign(s, ctx.Jobs[opt.job], sc.buf, opt.batch)
		// Refresh the job's entry in place; no other job's slots moved.
		sc.d.Update(s, opt.job)
		idle = idle[opt.gpus:]
	}
}

// bestFillOption returns the next fill action: the waiting job with the
// least sampled remaining work if any can start, else the growth with the
// largest sampled gain.
func bestFillOption(ctx *Context, d *cluster.Digest, idle int) (fillOption, bool) {
	var bestResume, bestGrow fillOption
	var haveResume, haveGrow bool
	for _, id := range ctx.jobIDs() {
		info := ctx.Jobs[id]
		opt, ok := expandOption(ctx, d, info, idle)
		if !ok {
			continue
		}
		rho := info.Dist.Sample(ctx.Rng)
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

// cloneFunc produces the working copy an operator mutates. The engine
// substitutes a pool-backed clone that recycles retired candidates.
type cloneFunc func(*cluster.Schedule) *cluster.Schedule

func cloneSchedule(s *cluster.Schedule) *cluster.Schedule { return s.Clone() }

// Refresh applies the paper's refresh operation to a clone of s: clean up
// completed jobs, enforce limits, allocate new jobs preferentially (taking
// GPUs from the longest-running jobs if needed), then fill idle GPUs.
func Refresh(s *cluster.Schedule, ctx *Context) *cluster.Schedule {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	return refreshWith(s, ctx, cloneSchedule, sc)
}

func refreshWith(s *cluster.Schedule, ctx *Context, clone cloneFunc, sc *evalScratch) *cluster.Schedule {
	out := clone(s)
	normalize(out, ctx, sc)
	allocateNewJobs(out, ctx, &sc.d)
	fill(out, ctx, sc)
	return out
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

// Crossover performs the uniform crossover of Figure 8 on clones of the
// parents: on each GPU, one child inherits parent A's gene and the other
// parent B's, with the orientation chosen by an independent fair coin.
// Children are normalized and filled so they remain feasible.
func Crossover(a, b *cluster.Schedule, ctx *Context) (*cluster.Schedule, *cluster.Schedule) {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	return crossoverWith(a, b, ctx, cloneSchedule, sc)
}

func crossoverWith(a, b *cluster.Schedule, ctx *Context, clone cloneFunc, sc *evalScratch) (*cluster.Schedule, *cluster.Schedule) {
	c1, c2 := clone(a), clone(b)
	for g := 0; g < c1.NumGPUs(); g++ {
		if ctx.Rng.Intn(2) == 0 {
			continue
		}
		ga := a.Slot(cluster.GPUID(g))
		gb := b.Slot(cluster.GPUID(g))
		c1.SetSlot(cluster.GPUID(g), gb.Job, gb.Batch)
		c2.SetSlot(cluster.GPUID(g), ga.Job, ga.Batch)
	}
	normalize(c1, ctx, sc)
	normalize(c2, ctx, sc)
	fill(c1, ctx, sc)
	fill(c2, ctx, sc)
	return c1, c2
}

// Mutate applies the uniform mutation of Figure 9 to a clone of s: every
// running job is preempted with probability theta and the freed GPUs are
// refilled with waiting or other running jobs.
func Mutate(s *cluster.Schedule, ctx *Context, theta float64) *cluster.Schedule {
	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	return mutateWith(s, ctx, theta, cloneSchedule, sc)
}

func mutateWith(s *cluster.Schedule, ctx *Context, theta float64, clone cloneFunc, sc *evalScratch) *cluster.Schedule {
	out := clone(s)
	sc.d.Load(out)
	for i := range sc.d.Jobs {
		if ctx.Rng.Float64() < theta {
			out.Evict(sc.d.Jobs[i].Job)
		}
	}
	normalize(out, ctx, sc)
	fill(out, ctx, sc)
	return out
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

	// Per-Iterate working storage, reused across rounds.
	tasks  []genTask
	cands  []*cluster.Schedule
	scores []float64
	order  []int
	// clonePool recycles the genomes of candidates that lost selection as
	// the backing storage for the next round's clones. Only rejected
	// candidates enter the pool: the selected population — including the
	// returned champion — may be retained by callers and is never reused.
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

// rngPool recycles the per-task *rand.Rand. Seed fully resets the source
// state, so a recycled generator re-seeded with t.seed yields exactly the
// stream rand.New(rand.NewSource(t.seed)) would.
var rngPool = sync.Pool{
	New: func() any { return rand.New(rand.NewSource(0)) },
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
	e.pop = e.pop[:0]
	for i := 0; i < e.K; i++ {
		e.pop = append(e.pop, Refresh(cluster.NewSchedule(ctx.Topo), ctx))
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
	clone := e.clone
	runTask := func(t genTask) {
		rng := rngPool.Get().(*rand.Rand)
		rng.Seed(t.seed)
		sc := scratchPool.Get().(*evalScratch)
		sub := *ctx
		sub.Rng = rng
		switch t.kind {
		case 0:
			candidates[t.outA] = refreshWith(t.a, &sub, clone, sc)
		case 1:
			c1, c2 := crossoverWith(t.a, t.b, &sub, clone, sc)
			candidates[t.outA], candidates[t.outB] = c1, c2
		default:
			candidates[t.outA] = mutateWith(t.a, &sub, e.Theta, clone, sc)
		}
		if !e.DisableReorder {
			candidates[t.outA].Reorder(&sc.d)
			if t.kind == 1 {
				candidates[t.outB].Reorder(&sc.d)
			}
		}
		scratchPool.Put(sc)
		rngPool.Put(rng)
	}
	e.forEach(len(tasks), func(i int) { runTask(tasks[i]) })
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
	e.forEach(nCand, func(i int) { scores[i] = Score(candidates[i], ctx, rhos) })
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

// forEach runs fn over [0, n) — serially, or on Parallelism goroutines.
// The optional Cancel probe is polled before each call; tasks after it
// fires are skipped (callers must not consume their outputs).
func (e *Engine) forEach(n int, fn func(i int)) {
	if e.Parallelism <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			if e.cancelled() {
				return
			}
			fn(i)
		}
		return
	}
	workers := e.Parallelism
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	var next int64
	for w := 0; w < workers; w++ {
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
				fn(i)
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

// Best returns the current champion (lowest sampled score) without
// evolving, or nil for an empty population.
func (e *Engine) Best(ctx *Context) *cluster.Schedule {
	if len(e.pop) == 0 {
		return nil
	}
	rhos := e.progressDraws(ctx)
	best := e.pop[0]
	bestScore := Score(best, ctx, rhos)
	for _, s := range e.pop[1:] {
		if sc := Score(s, ctx, rhos); sc < bestScore {
			best, bestScore = s, sc
		}
	}
	return best
}
