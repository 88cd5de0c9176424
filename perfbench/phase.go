package main

import (
	"fmt"
	"io"
)

// Op kinds: a cell op computes a simulation cell; an onesd op is cold
// (the daemon computed the cell), or warm from disk or from memory.
const (
	kindCell   = "cell"
	kindCold   = "cold"
	kindDisk   = "disk"
	kindMemory = "memory"
)

// opRecord is one completed op.
type opRecord struct {
	kind string
	sec  float64
}

// phaseResult is what one timed phase measured.
type phaseResult struct {
	seconds   float64 // wall time of the phase
	ops       []opRecord
	attempted int
	failures  []string // one entry per failed op or failed run-level check
	// simMeanJCT is the mean over the workload's cells of each cell's
	// simulated mean JCT.
	simMeanJCT float64
	// digests maps an op identity to its result's digest, so a traced
	// phase can be checked against the untraced one.
	digests map[string]string
	// sums and samples accumulate per-layer measurements by name.
	sums    map[string]float64
	samples map[string][]float64
	mem     memDelta

	setupS, peakRSSMB float64
}

func newPhaseResult() *phaseResult {
	return &phaseResult{
		digests: make(map[string]string),
		sums:    make(map[string]float64),
		samples: make(map[string][]float64),
	}
}

func (p *phaseResult) fail(format string, args ...any) {
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *phaseResult) add(name string, v float64) { p.sums[name] += v }

func (p *phaseResult) sample(name string, v float64) {
	p.samples[name] = append(p.samples[name], v)
}

// latencies returns the op latencies of the given kinds (all when none).
func (p *phaseResult) latencies(kinds ...string) []float64 {
	var out []float64
	for _, op := range p.ops {
		if len(kinds) == 0 || contains(kinds, op.kind) {
			out = append(out, op.sec)
		}
	}
	return out
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// endToEnd assembles the --trace 0 report.
func (p *phaseResult) endToEnd() *report {
	lat := p.latencies()
	tailV, _ := tail(lat)
	m := map[string]metric{
		"setup_s":        {p.setupS, "s"},
		"ops_per_s":      {ratio(float64(len(p.ops)), p.seconds), "1/s"},
		"op_s_p50":       {median(lat), "s"},
		"op_s_tail":      {tailV, "s"},
		"sim_mean_jct_s": {p.simMeanJCT, "s"},
		"peak_rss_mb":    {p.peakRSSMB, "MB"},
	}
	return &report{
		Correct:   len(p.failures) == 0,
		Attempted: p.attempted,
		Failed:    len(p.failures),
		Metrics:   m,
	}
}

// compareTraced checks that telemetry stayed out of band: the traced
// phase reproduces the untraced phase's simulated JCTs and result bytes.
func compareTraced(plain, traced *phaseResult) {
	if plain.simMeanJCT != traced.simMeanJCT {
		traced.fail("traced sim_mean_jct_s %v differs from untraced %v", traced.simMeanJCT, plain.simMeanJCT)
	}
	for _, k := range sortedKeys(traced.digests) {
		if want, ok := plain.digests[k]; ok && want != traced.digests[k] {
			traced.fail("traced result of %s differs from the untraced result", k)
		}
	}
}

// perLayer assembles the --trace 1 report. Span-derived layer times
// and counts come from the traced phase; the Go runtime deltas and the
// cold/warm latency splits come from the untraced phase, which tracing
// does not inflate.
func perLayer(plain, traced *phaseResult) *report {
	t := traced.sums
	cells := t["cells"]
	onesCells := t["ones_cells"]
	perCell := func(k string) float64 { return ratio(t[k], cells) }
	perONES := func(k string) float64 { return ratio(t[k], onesCells) }
	plainOps := float64(len(plain.ops))
	warmTail, _ := tail(plain.latencies(kindDisk, kindMemory))
	decide := traced.samples["decide_s"]
	v := map[string]float64{
		"workload.generate_s":        perCell("workload.generate_s"),
		"simulator.self_s":           perCell("simulator.self_s"),
		"simulator.decisions":        perCell("simulator.decisions"),
		"simulator.view_jobs_mean":   ratio(t["view_jobs"], t["simulator.decisions"]),
		"simulator.reconfigs":        perCell("simulator.reconfigs"),
		"schedulers.decide_s":        perCell("schedulers.decide_s"),
		"schedulers.decide_s_p50":    median(decide),
		"schedulers.decide_s_p99":    quantile(decide, 0.99),
		"ones.decide_self_s":         perONES("ones.decide_self_s"),
		"ones.deploy_ratio":          ratio(t["ones.deployments"], t["ones.decisions"]),
		"ones.gated_ratio":           ratio(t["ones.gated"], t["ones.decisions"]),
		"evolution.interval_s":       perONES("evolution.interval_s"),
		"evolution.generations":      perONES("evolution.generations"),
		"evolution.candidates":       perONES("evolution.candidates"),
		"evolution.candidates_per_s": ratio(t["evolution.candidates"], t["evolution.interval_s"]),
		"evolution.memo_hit_ratio":   ratio(t["evolution.memo_hits"], t["evolution.memo_hits"]+t["evolution.memo_misses"]),
		"predictor.fits":             perONES("predictor.fits"),
		"predictor.training_size":    perONES("predictor.training_size"),
		"predictor.refit_self_s":     perONES("predictor.refit_self_s"),
		"engine.queued_s":            perCell("engine.queued_s"),
		"engine.trace_gen_s":         perCell("engine.trace_gen_s"),
		"engine.simulate_s":          perCell("engine.simulate_s"),
		"servecache.memory_hits":     t["servecache.memory_hits"],
		"servecache.disk_hits":       t["servecache.disk_hits"],
		"servecache.computes":        t["servecache.computes"],
		"servecache.dedup_waits":     t["servecache.dedup_waits"],
		"servecache.discards":        t["servecache.discards"],
		"servecache.hit_ratio": ratio(t["servecache.memory_hits"]+t["servecache.disk_hits"],
			t["servecache.memory_hits"]+t["servecache.disk_hits"]+t["servecache.computes"]),
		"servecache.disk_hit_run_s_p50":   median(plain.latencies(kindDisk)),
		"servecache.memory_hit_run_s_p50": median(plain.latencies(kindMemory)),
		"serve.create_s_p50":              median(traced.samples["serve.create_s"]),
		"serve.stream_end_s_p50":          median(traced.samples["serve.stream_end_s"]),
		"serve.stream_events":             mean(traced.samples["serve.stream_events"]),
		"serve.get_s_p50":                 median(traced.samples["serve.get_s"]),
		"serve.get_bytes_mean":            mean(traced.samples["serve.get_bytes"]),
		"cold_run_s_p50":                  median(plain.latencies(kindCold, kindCell)),
		"warm_run_s_p50":                  median(plain.latencies(kindDisk, kindMemory)),
		"warm_run_s_tail":                 warmTail,
		"go.alloc_bytes_per_op":           ratio(plain.mem.allocBytes, plainOps),
		"go.mallocs_per_op":               ratio(plain.mem.mallocs, plainOps),
		"go.gc_cycles_per_op":             ratio(plain.mem.gcCycles, plainOps),
		"trace.overhead_ratio":            ratio(median(traced.latencies()), median(plain.latencies())),
	}
	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{v[name], unit}
	}
	failed := len(plain.failures) + len(traced.failures)
	return &report{
		Correct:   failed == 0,
		Attempted: plain.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   m,
	}
}

// perLayerUnits lists every per-layer metric with its unit; it must
// match BENCHMARK.json (the smoke tests check).
var perLayerUnits = map[string]string{
	"workload.generate_s":             "s",
	"simulator.self_s":                "s",
	"simulator.decisions":             "count",
	"simulator.view_jobs_mean":        "count",
	"simulator.reconfigs":             "count",
	"schedulers.decide_s":             "s",
	"schedulers.decide_s_p50":         "s",
	"schedulers.decide_s_p99":         "s",
	"ones.decide_self_s":              "s",
	"ones.deploy_ratio":               "ratio",
	"ones.gated_ratio":                "ratio",
	"evolution.interval_s":            "s",
	"evolution.generations":           "count",
	"evolution.candidates":            "count",
	"evolution.candidates_per_s":      "1/s",
	"evolution.memo_hit_ratio":        "ratio",
	"predictor.fits":                  "count",
	"predictor.training_size":         "count",
	"predictor.refit_self_s":          "s",
	"engine.queued_s":                 "s",
	"engine.trace_gen_s":              "s",
	"engine.simulate_s":               "s",
	"servecache.memory_hits":          "count",
	"servecache.disk_hits":            "count",
	"servecache.computes":             "count",
	"servecache.dedup_waits":          "count",
	"servecache.discards":             "count",
	"servecache.hit_ratio":            "ratio",
	"servecache.disk_hit_run_s_p50":   "s",
	"servecache.memory_hit_run_s_p50": "s",
	"serve.create_s_p50":              "s",
	"serve.stream_end_s_p50":          "s",
	"serve.stream_events":             "count",
	"serve.get_s_p50":                 "s",
	"serve.get_bytes_mean":            "bytes",
	"cold_run_s_p50":                  "s",
	"warm_run_s_p50":                  "s",
	"warm_run_s_tail":                 "s",
	"go.alloc_bytes_per_op":           "bytes",
	"go.mallocs_per_op":               "count",
	"go.gc_cycles_per_op":             "count",
	"trace.overhead_ratio":            "ratio",
}

// printPhase writes a phase's human-readable summary.
func printPhase(w io.Writer, name string, p *phaseResult) {
	lat := p.latencies()
	tailV, pct := tail(lat)
	fmt.Fprintf(w, "%s phase: %d ops in %.3f s (%.4g ops/s), %d attempted, %d failed (error_rate %.4g ratio)\n",
		name, len(p.ops), p.seconds, ratio(float64(len(p.ops)), p.seconds), p.attempted, len(p.failures),
		ratio(float64(len(p.failures)), float64(p.attempted)))
	fmt.Fprintf(w, "  op latency: p50 %.6f s, tail %.6f s at p%.1f of n=%d\n", median(lat), tailV, pct, len(lat))
	for _, k := range []string{kindCold, kindDisk, kindMemory} {
		if l := p.latencies(k); len(l) > 0 {
			kt, kp := tail(l)
			fmt.Fprintf(w, "  %s ops: n=%d p50 %.6f s, tail %.6f s at p%.1f\n", k, len(l), median(l), kt, kp)
		}
	}
	if warm := p.latencies(kindDisk, kindMemory); len(warm) > 0 {
		wt, wp := tail(warm)
		fmt.Fprintf(w, "  warm ops: n=%d warm_run_s_p50 %.6f s, warm_run_s_tail %.6f s at p%.1f\n", len(warm), median(warm), wt, wp)
	}
	fmt.Fprintf(w, "  sim_mean_jct_s %.6f s\n", p.simMeanJCT)
	for i, f := range p.failures {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more failures\n", len(p.failures)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printAttribution writes the traced phase's layer self times as shares
// of the summed op time, with the unattributed remainder.
func printAttribution(w io.Writer, workload string, p *phaseResult) {
	t := p.sums
	if workload != "onesd-mixed" {
		total := 0.0
		for _, l := range p.latencies() {
			total += l
		}
		attribution(w, "cell ops", total, []row{
			{"workload.Generate", t["workload.generate_s"]},
			{"schedulers.New", t["schedulers.new_s"]},
			{"simulator.RunContext (self)", t["simulator.self_s"]},
			{"Decide self (excl. refit)", t["decide_self_s"] - t["predictor.refit_self_s"]},
			{"predictor refit (Decide self)", t["predictor.refit_self_s"]},
			{"evolution-interval", t["evolution.interval_s"]},
		})
		return
	}
	attribution(w, "warm ops", t["warm.op_s"], []row{
		{"POST /v1/runs", t["warm.create_s"]},
		{"GET stream to its end line", t["warm.stream_s"]},
		{"GET /v1/runs/{id}", t["warm.get_s"]},
	})
	// The run starts while POST /v1/runs is still answering, so the
	// engine spans overlap the POST; the remainder is the POST and the
	// stream wait outside the engine spans.
	attribution(w, "cold probe ops", t["probe.op_s"], []row{
		{"GET /v1/runs/{id}", t["probe.get_s"]},
		{"engine queued", t["engine.queued_s"]},
		{"engine trace-gen", t["engine.trace_gen_s"]},
		{"engine simulate (self)", t["engine.simulate_s"] - t["evolution.interval_s"]},
		{"evolution-interval", t["evolution.interval_s"]},
	})
}

type row struct {
	name string
	sec  float64
}

func attribution(w io.Writer, title string, total float64, rows []row) {
	fmt.Fprintf(w, "attribution, %s of the traced phase (%.4f s of op time):\n", title, total)
	attributed := 0.0
	for _, r := range rows {
		attributed += r.sec
		fmt.Fprintf(w, "  %-32s %10.4f s %6.2f%%\n", r.name, r.sec, 100*ratio(r.sec, total))
	}
	rest := total - attributed
	fmt.Fprintf(w, "  %-32s %10.4f s %6.2f%%\n", "unattributed", rest, 100*ratio(rest, total))
}
