package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/pkg/ones"
	"repro/pkg/ones/serve"
)

const (
	// authToken is the bearer token the daemon requires on /v1.
	authToken = "perfbench"
	// runTableCap is the daemon's run-table cap (serve.Config.MaxRuns).
	// The table evicts finished runs in creation order, so the cap must
	// exceed the runs the reader creates while one writer op runs, or the
	// writer's final GET finds its run evicted (at 256, about one cold
	// ONES op in four got a 404 on the reference box).
	runTableCap = 1024
)

// writerScheds are the schedulers the writer client cycles through.
var writerScheds = []string{"ones", "tiresias", "optimus", "drl"}

// onesdWorkload is an in-process onesd (serve.Server behind a loopback
// listener, with bearer auth and a run-table cap) under two closed-loop
// clients: a reader replaying a seeded sequence over a catalogue the
// set-up computed into the cache directory, and a writer submitting
// fresh specs that each compute a cell.
type onesdWorkload struct {
	cfg       config
	base      string // this run's directory under cfg.workdir
	catalogue []serve.RunSpec
	// recorded holds each catalogue result's compact JSON from set-up 0;
	// every later set-up and every warm op must reproduce it.
	recorded  [][]byte
	meanJCT   float64
	daemons   []*daemon // one per set-up, serving its cache directory
	setupFail []string  // correctness failures found during set-up
}

func newOnesdWorkload(cfg config) (*onesdWorkload, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp(cfg.workdir, "onesd-")
	if err != nil {
		return nil, err
	}
	return &onesdWorkload{cfg: cfg, base: base, catalogue: onesdCatalogue(cfg.seed, cfg.size)}, nil
}

// onesdCatalogue is the reader's spec set: quick-scale cells across the
// schedulers, two small ONES cells, and a few event-logged cells with
// hundreds of jobs whose results are hundreds of KB.
func onesdCatalogue(seed int64, size string) []serve.RunSpec {
	base := seed * 1_000_000
	big, quick, onesJobs, bigJobs := 3, 19, 12, 400
	if size == "tiny" {
		big, quick, onesJobs, bigJobs = 1, 2, 6, 40
	}
	var cat []serve.RunSpec
	for i := 0; i < big; i++ {
		sched := []string{"fifo", "optimus", "drl"}[i%3]
		cat = append(cat, serve.RunSpec{Scheduler: sched, Jobs: bigJobs, RecordEvents: true, Seed: base + int64(len(cat)) + 1})
	}
	for i := 0; i < 2; i++ {
		cat = append(cat, serve.RunSpec{Scheduler: "ones", Quick: true, Jobs: onesJobs, EvolutionParallelism: 1, Seed: base + int64(len(cat)) + 1})
	}
	for i := 0; i < quick; i++ {
		sched := []string{"tiresias", "optimus", "drl", "fifo", "sjf"}[i%5]
		cat = append(cat, serve.RunSpec{Scheduler: sched, Quick: true, Seed: base + int64(len(cat)) + 1})
	}
	return cat
}

// writerSpec is the writer's i-th spec: quick scale, a seed no other
// spec uses, so it always computes. ONES cells hold 12 jobs, so that a
// run's decisions fit the daemon's 512-span trace cap.
func (w *onesdWorkload) writerSpec(i int) serve.RunSpec {
	sp := serve.RunSpec{
		Scheduler:            writerScheds[i%len(writerScheds)],
		Quick:                true,
		EvolutionParallelism: 1,
		Seed:                 w.cfg.seed*1_000_000 + 500_000 + int64(i),
	}
	switch {
	case w.cfg.size == "tiny":
		sp.Jobs = 6
	case sp.Scheduler == "ones":
		sp.Jobs = 12
	}
	return sp
}

// specJobs is the number of jobs a spec's trace holds.
func specJobs(sp serve.RunSpec) int {
	switch {
	case sp.Jobs > 0:
		return sp.Jobs
	case sp.Quick:
		return 30 // engine.QuickParams
	default:
		return 120
	}
}

// setup computes the catalogue into a fresh cache directory through a
// daemon, records every result, then starts a fresh daemon over that
// directory for a later phase.
func (w *onesdWorkload) setup(ctx context.Context, i int, traced bool) error {
	dir := filepath.Join(w.base, fmt.Sprintf("cache%d", i))
	d, err := startDaemon(dir, nil)
	if err != nil {
		return err
	}
	results, err := w.computeCatalogue(ctx, d)
	stats := d.cache.Stats()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}
	if stats.Computes != len(w.catalogue) || stats.DiskHits+stats.MemoryHits+stats.Discards != 0 {
		w.setupFail = append(w.setupFail, fmt.Sprintf("set-up %d cache stats %+v, want %d computes and nothing else", i, stats, len(w.catalogue)))
	}
	if i == 0 {
		w.recorded = results
		var jcts []float64
		for _, r := range results {
			var res ones.Result
			if err := json.Unmarshal(r, &res); err != nil {
				return err
			}
			jcts = append(jcts, res.MeanJCT)
		}
		w.meanJCT = mean(jcts)
	} else {
		for j, r := range results {
			if !bytes.Equal(r, w.recorded[j]) {
				w.setupFail = append(w.setupFail, fmt.Sprintf("set-up %d: catalogue spec %d computed different bytes than set-up 0", i, j))
			}
		}
	}
	var m *ones.Metrics
	if traced {
		m = ones.NewMetrics()
	}
	d, err = startDaemon(dir, m)
	if err != nil {
		return err
	}
	w.daemons = append(w.daemons, d)
	return nil
}

// computeCatalogue runs every catalogue spec cold, two at a time, and
// returns the checked results.
func (w *onesdWorkload) computeCatalogue(ctx context.Context, d *daemon) ([][]byte, error) {
	results := make([][]byte, len(w.catalogue))
	errs := make([]error, len(w.catalogue))
	next := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				out := d.op(ctx, w.catalogue[j])
				if out.err == nil {
					out.err = checkPublic(out.result, specJobs(w.catalogue[j]))
				}
				results[j], errs[j] = out.result, out.err
			}
		}()
	}
	for j := range w.catalogue {
		next <- j
	}
	close(next)
	wg.Wait()
	for j, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("catalogue spec %d: %w", j, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

func (w *onesdWorkload) close() {
	for _, d := range w.daemons {
		if err := d.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping daemon:", err)
		}
	}
	if err := os.RemoveAll(w.base); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// phase runs the reader and writer against set-up i's daemon until the
// phase has lasted `seconds`, then checks the cache's counts against the
// plan. A traced phase ends with a probe: one more writer round with the
// reader stopped, whose per-run span trees give the engine layers (under
// the reader's load the daemon's 64-trace buffer evicts a cold run's
// trace before the run ends).
func (w *onesdWorkload) phase(ctx context.Context, i int, traced bool, seconds float64) (*phaseResult, error) {
	d := w.daemons[i]
	if w.cfg.hooks.tamper != nil {
		if err := w.cfg.hooks.tamper(d.dir); err != nil {
			return nil, err
		}
	}
	p := newPhaseResult()
	if !traced {
		p.failures = append(p.failures, w.setupFail...)
	}
	p.simMeanJCT = w.meanJCT
	var mu sync.Mutex // guards p
	record := func(kind, key string, out opOutcome) {
		mu.Lock()
		defer mu.Unlock()
		p.attempted++
		if out.err != nil {
			p.fail("%s op: %v", kind, out.err)
			return
		}
		if key != "" {
			p.digests[key] = digest(out.result)
		}
		p.ops = append(p.ops, opRecord{kind, out.total()})
		p.sample("serve.create_s", out.create)
		p.sample("serve.stream_end_s", out.stream)
		p.sample("serve.stream_events", float64(out.events))
		p.sample("serve.get_s", out.get)
		p.sample("serve.get_bytes", float64(out.getBytes))
		if kind != kindCold {
			p.add("warm.op_s", out.total())
			p.add("warm.create_s", out.create)
			p.add("warm.stream_s", out.stream)
			p.add("warm.get_s", out.get)
		}
	}

	touched := make(map[int]bool)
	readerOps, writerOps := 0, 0
	before := memSnapshot()
	start := time.Now()
	more := func(n int) bool { return n == 0 || time.Since(start).Seconds() < seconds }
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(w.cfg.seed))
		for ; more(readerOps) && ctx.Err() == nil; readerOps++ {
			j := rng.Intn(len(w.catalogue))
			kind := kindMemory
			if !touched[j] {
				kind = kindDisk
				touched[j] = true
			}
			out := d.op(ctx, w.catalogue[j])
			if out.err == nil && !bytes.Equal(out.result, w.recorded[j]) {
				out.err = fmt.Errorf("catalogue spec %d: warm result differs from the one recorded in set-up", j)
			}
			record(kind, "", out)
		}
	}()
	go func() { // writer
		defer wg.Done()
		for ; more(writerOps) && ctx.Err() == nil; writerOps++ {
			record(kindCold, fmt.Sprintf("writer%d", writerOps), w.writerOp(ctx, d, writerOps))
		}
	}()
	wg.Wait()
	p.seconds = time.Since(start).Seconds()
	p.mem = memSince(before)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	st := d.cache.Stats()
	if traced {
		before := d.metrics.Snapshot()
		for range writerScheds {
			p.attempted++
			out := w.writerOp(ctx, d, writerOps)
			if out.err == nil {
				out.err = accountProbe(ctx, d, p, out, w.writerSpec(writerOps).Scheduler)
			}
			if out.err != nil {
				p.fail("probe op: %v", out.err)
			} else {
				p.digests[fmt.Sprintf("writer%d", writerOps)] = digest(out.result)
			}
			writerOps++
		}
		after := d.metrics.Snapshot()
		p.add("evolution.generations", float64(after.Generations-before.Generations))
		p.add("evolution.candidates", float64(after.Candidates-before.Candidates))
		p.add("evolution.memo_hits", float64(after.MemoHits-before.MemoHits))
		p.add("evolution.memo_misses", float64(after.MemoMisses-before.MemoMisses))
		p.add("ones.decisions", float64(after.Decisions-before.Decisions))
		p.add("ones.deployments", float64(after.Deployments-before.Deployments))
	}
	final := d.cache.Stats()
	p.add("servecache.memory_hits", float64(st.MemoryHits))
	p.add("servecache.disk_hits", float64(st.DiskHits))
	p.add("servecache.computes", float64(st.Computes))
	p.add("servecache.dedup_waits", float64(st.DedupWaits))
	p.add("servecache.discards", float64(st.Discards))
	want := ones.CacheStats{
		Computes:   writerOps,
		MemoryHits: readerOps - len(touched),
		DiskHits:   len(touched),
		Entries:    final.Entries,
	}
	if final != want {
		p.fail("cache stats %+v, plan %+v", final, want)
	}
	return p, nil
}

// writerOp runs the writer's i-th spec and checks its result.
func (w *onesdWorkload) writerOp(ctx context.Context, d *daemon, i int) opOutcome {
	sp := w.writerSpec(i)
	out := d.op(ctx, sp)
	if out.err == nil {
		out.err = checkPublic(out.result, specJobs(sp))
	}
	return out
}

// accountProbe reads a probe op's span tree into p's engine sums.
func accountProbe(ctx context.Context, d *daemon, p *phaseResult, out opOutcome, sched string) error {
	tree, err := d.trace(ctx, out.id)
	if err != nil {
		return err
	}
	var cell *span
	for _, c := range tree.children {
		if strings.HasPrefix(c.name, "cell ") {
			cell = c
		}
	}
	if cell == nil {
		return fmt.Errorf("run %s: trace has no cell span", out.id)
	}
	p.add("cells", 1)
	p.add("probe.op_s", out.total())
	p.add("probe.get_s", out.get)
	p.add("engine.queued_s", spanDur(cell.child("queued")))
	p.add("engine.trace_gen_s", spanDur(cell.child("trace-gen")))
	if sim := cell.child("simulate"); sim != nil {
		p.add("engine.simulate_s", sim.dur)
		sim.each("evolution-interval", func(e *span) { p.add("evolution.interval_s", e.dur) })
	}
	if sched == "ones" {
		p.add("ones_cells", 1)
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func spanDur(s *span) float64 {
	if s == nil {
		return 0
	}
	return s.dur
}

// checkPublic decodes a run's result and checks it like a cell result.
func checkPublic(raw []byte, jobs int) error {
	var res ones.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	ids := make(map[int]float64, jobs)
	for id := 0; id < jobs; id++ {
		ids[id] = math.NaN() // the trace is generated inside the daemon
	}
	out := make([]jobOutcome, len(res.Jobs))
	for i, j := range res.Jobs {
		out[i] = jobOutcome{j.ID, j.Submit, j.Done, j.JCT, j.Exec}
	}
	return checkJobs(res.Truncated, res.Unfinished, out, ids, res.BusyGPUSeconds, res.CapacityGPUSeconds)
}

// daemon is one in-process onesd on a loopback port.
type daemon struct {
	dir     string
	cache   *ones.Cache
	metrics *ones.Metrics
	srv     *serve.Server
	hs      *http.Server
	url     string
	client  *http.Client
	served  chan struct{} // closed when Serve returns
}

func startDaemon(dir string, m *ones.Metrics) (*daemon, error) {
	warn := func(format string, args ...any) { fmt.Fprintf(os.Stderr, "onesd cache: "+format+"\n", args...) }
	cache, err := ones.NewCache(dir, warn)
	if err != nil {
		return nil, err
	}
	opts := []serve.Option{serve.WithConfig(serve.Config{MaxRuns: runTableCap, AuthToken: authToken})}
	if m != nil {
		opts = append(opts, serve.WithMetrics(m))
	}
	srv := serve.New(cache, log.New(os.Stderr, "onesd: ", 0), opts...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		dir:     dir,
		cache:   cache,
		metrics: m,
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:     "http://" + ln.Addr().String(),
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		served:  make(chan struct{}),
	}
	go func() {
		defer close(d.served)
		if err := d.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: onesd:", err)
		}
	}()
	return d, nil
}

// stop shuts the HTTP server and the run table down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	<-d.served
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// opOutcome is one client op: POST /v1/runs, follow /stream to its end
// line, GET /v1/runs/{id}.
type opOutcome struct {
	id                  string
	create, stream, get float64 // seconds
	events, getBytes    int
	result              []byte // compact JSON of the status's result
	err                 error
}

func (o opOutcome) total() float64 { return o.create + o.stream + o.get }

func (d *daemon) op(ctx context.Context, spec serve.RunSpec) (out opOutcome) {
	t0 := time.Now()
	body, err := d.call(ctx, http.MethodPost, "/v1/runs", mustJSON(spec), http.StatusCreated)
	out.create = time.Since(t0).Seconds()
	if err != nil {
		out.err = err
		return out
	}
	var created struct {
		ID string `json:"id"`
	}
	if out.err = json.Unmarshal(body, &created); out.err != nil {
		return out
	}
	out.id = created.ID

	t1 := time.Now()
	out.events, out.err = d.follow(ctx, out.id)
	out.stream = time.Since(t1).Seconds()
	if out.err != nil {
		return out
	}

	t2 := time.Now()
	body, err = d.call(ctx, http.MethodGet, "/v1/runs/"+out.id, nil, http.StatusOK)
	out.get = time.Since(t2).Seconds()
	if err != nil {
		out.err = err
		return out
	}
	out.getBytes = len(body)
	var status struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if out.err = json.Unmarshal(body, &status); out.err != nil {
		return out
	}
	if status.Status != serve.StatusDone {
		out.err = fmt.Errorf("run %s: status %q", out.id, status.Status)
		return out
	}
	var compact bytes.Buffer
	if out.err = json.Compact(&compact, status.Result); out.err != nil {
		return out
	}
	out.result = compact.Bytes()
	return out
}

// follow reads a run's NDJSON stream to its end line and returns how
// many progress events preceded it.
func (d *daemon) follow(ctx context.Context, id string) (int, error) {
	resp, err := d.request(ctx, http.MethodGet, "/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET stream %s: HTTP %d", id, resp.StatusCode)
	}
	r := bufio.NewReader(resp.Body)
	events := 0
	for {
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var ev struct {
				Kind   string `json:"kind"`
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				return events, fmt.Errorf("stream %s: %w", id, jerr)
			}
			if ev.Kind == "end" {
				if ev.Status != serve.StatusDone {
					return events, fmt.Errorf("stream %s ended %q: %s", id, ev.Status, ev.Error)
				}
				_, err = io.Copy(io.Discard, r)
				return events, err
			}
			events++
		}
		if err != nil {
			return events, fmt.Errorf("stream %s ended without an end line: %w", id, err)
		}
	}
}

// trace fetches a run's span tree.
func (d *daemon) trace(ctx context.Context, id string) (*span, error) {
	body, err := d.call(ctx, http.MethodGet, "/v1/runs/"+id+"/trace", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var t struct {
		Trace *ones.TraceNode `json:"trace"`
	}
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, err
	}
	if t.Trace == nil {
		return nil, fmt.Errorf("run %s: empty trace", id)
	}
	if t.Trace.DroppedSpans != 0 {
		return nil, fmt.Errorf("run %s: trace dropped %d spans", id, t.Trace.DroppedSpans)
	}
	return fromTraceNode(t.Trace), nil
}

// call makes one request and returns its body, failing on any status
// but want.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	resp, err := d.request(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func (d *daemon) request(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+authToken)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return d.client.Do(req)
}
