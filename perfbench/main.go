// Command perfbench is the repository benchmark. One invocation runs
// one workload — ones-search, baseline-sim or onesd-mixed — for a fixed
// wall time, checks every operation's output, and prints a report whose
// last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run measures an untraced and a traced phase back to back and the
// metrics are the per-layer ones (see README.md for every name, its
// unit and the layer it belongs to).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ones-search --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare old.txt new.txt
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/simulator"
)

// setups is how many times a run performs its set-up; setup_s is the
// median.
const setups = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		return
	}
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// config is one run's parsed command line plus the test-only hooks.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string // "full" (the benchmark) or "tiny" (smoke tests)
	workdir  string // scratch space for onesd cache directories
	hooks    hooks
}

// hooks let the tests inject faults the correctness checks must catch.
// A real run leaves them nil.
type hooks struct {
	// wrap wraps each cell's scheduler (cell workloads).
	wrap func(simulator.Scheduler) simulator.Scheduler
	// mutate edits each cell's result before it is checked.
	mutate func(*simulator.Result)
	// tamper edits the onesd cache directory between set-up and the
	// timed phase.
	tamper func(dir string) error
}

func parseConfig(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	c := config{}
	fs.StringVar(&c.workload, "workload", "", "workload: ones-search, baseline-sim or onesd-mixed")
	fs.Int64Var(&c.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.Float64Var(&c.seconds, "seconds", 30, "wall seconds the timed phase lasts (at least one full pass is always made)")
	traceN := fs.Int("trace", 0, "1 measures an untraced and a traced phase and reports the per-layer metrics")
	fs.StringVar(&c.size, "size", "full", "input size: full, or tiny for smoke tests")
	fs.StringVar(&c.workdir, "workdir", ".bench_build/perfbench-work", "scratch directory for daemon cache files")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = *traceN == 1
	if *traceN != 0 && *traceN != 1 {
		return c, fmt.Errorf("--trace %d: want 0 or 1", *traceN)
	}
	if c.size != "full" && c.size != "tiny" {
		return c, fmt.Errorf("--size %q: want full or tiny", c.size)
	}
	if c.seconds < 0 {
		return c, fmt.Errorf("--seconds %v: want ≥ 0", c.seconds)
	}
	return c, nil
}

// run executes one benchmark run and writes its report to w.
func run(ctx context.Context, args []string, w io.Writer) error {
	cfg, err := parseConfig(args)
	if err != nil {
		return err
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fingerprint %s\n", mustJSON(machineFingerprint(root)))
	rep, err := runWorkload(ctx, cfg, w)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", mustJSON(rep))
	return nil
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchWorkload is one benchmark workload. setup is called `setups` times
// before any phase; phase(i) measures on the state set-up i left behind
// (the last set-up for an untraced run; the last two for a traced run).
type benchWorkload interface {
	setup(ctx context.Context, i int, traced bool) error
	phase(ctx context.Context, i int, traced bool, seconds float64) (*phaseResult, error)
	close()
}

func newWorkload(cfg config) (benchWorkload, error) {
	switch cfg.workload {
	case "ones-search":
		return newCellWorkload(onesSearchCells(cfg.seed, cfg.size), cfg.hooks), nil
	case "baseline-sim":
		return newCellWorkload(baselineSimCells(cfg.seed, cfg.size), cfg.hooks), nil
	case "onesd-mixed":
		return newOnesdWorkload(cfg)
	case "":
		return nil, errors.New("--workload is required")
	default:
		return nil, fmt.Errorf("unknown workload %q (want ones-search, baseline-sim or onesd-mixed)", cfg.workload)
	}
}

// runWorkload sets the workload up `setups` times, runs its phases, checks
// them against each other and assembles the report.
func runWorkload(ctx context.Context, cfg config, w io.Writer) (*report, error) {
	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer wl.close()
	setupS := make([]float64, setups)
	for i := range setupS {
		t0 := time.Now()
		if err := wl.setup(ctx, i, cfg.trace && i == setups-1); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupS[i] = time.Since(t0).Seconds()
	}
	fmt.Fprintf(w, "workload %s seed %d size %s: set-up %.4f s\n", cfg.workload, cfg.seed, cfg.size, setupS)

	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2 // the untraced and traced phases share the run's time
	}
	plainSetup := setups - 1
	if cfg.trace {
		plainSetup-- // the last set-up is the traced phase's
	}
	plain, err := wl.phase(ctx, plainSetup, false, seconds)
	if err != nil {
		return nil, err
	}
	plain.setupS = median(setupS)
	plain.peakRSSMB = peakRSSMB()
	if !cfg.trace {
		printPhase(w, "untraced", plain)
		return plain.endToEnd(), nil
	}
	traced, err := wl.phase(ctx, setups-1, true, seconds)
	if err != nil {
		return nil, err
	}
	compareTraced(plain, traced)
	printPhase(w, "untraced", plain)
	printPhase(w, "traced", traced)
	printAttribution(w, cfg.workload, traced)
	return perLayer(plain, traced), nil
}

// repoRoot finds the repository root: the working directory (as the
// benchmark is run) or its parent (as its tests are run), whichever
// holds the go.mod of module repro.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && modulePath(data) == "repro" {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("run from the repository root: no go.mod of module repro here")
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled
	}
	return b
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
