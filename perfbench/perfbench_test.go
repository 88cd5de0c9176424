package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

var workloads = []string{"ones-search", "baseline-sim", "onesd-mixed"}

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that the last output line is a correct report carrying exactly
// the metrics BENCHMARK.json names, each with its unit.
func TestSmoke(t *testing.T) {
	spec := readBenchmarkSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", names, workloads)
	}
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace"+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "0", "--trace", trace,
					"--size", "tiny", "--workdir", t.TempDir()}
				if err := run(context.Background(), args, &out); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatalf("last line is not a report: %v\n%s", err, out.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("report correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, out.String())
				}
				want := make(map[string]string)
				if trace == "0" {
					for _, m := range spec.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range spec.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(rep.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := rep.Metrics[name]
					if !ok {
						t.Errorf("metric %s not printed", name)
					} else if got.Unit != unit {
						t.Errorf("metric %s printed in %q, BENCHMARK.json says %q", name, got.Unit, unit)
					}
				}
			})
		}
	}
}

// starver wraps a scheduler and keeps one job off the GPUs forever, so
// the job never completes.
type starver struct {
	simulator.Scheduler
	victim cluster.JobID
}

func (s starver) Decide(tr simulator.Trigger, v *simulator.View) *cluster.Schedule {
	next := s.Scheduler.Decide(tr, v)
	if next == nil {
		if !v.Current.IsRunning(s.victim) {
			return nil
		}
		next = v.Current
	}
	next = next.Clone()
	for g := 0; g < next.NumGPUs(); g++ {
		if next.Slot(cluster.GPUID(g)).Job == s.victim {
			next.Clear(cluster.GPUID(g))
		}
	}
	return next
}

// TestChecksCatchFaults injects faults the correctness checks must
// catch: each must leave the run incorrect with a nonzero error rate.
func TestChecksCatchFaults(t *testing.T) {
	cases := []struct {
		name, workload string
		h              hooks
	}{
		{"dropped completion", "ones-search", hooks{
			wrap: func(s simulator.Scheduler) simulator.Scheduler { return starver{s, 0} },
		}},
		{"duplicated job", "baseline-sim", hooks{
			mutate: func(r *simulator.Result) { r.Jobs[1] = r.Jobs[0] },
		}},
		{"tampered cache file", "onesd-mixed", hooks{tamper: tamperCache}},
	}
	for _, tc := range cases {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", tc.name, traced), func(t *testing.T) {
				cfg := config{workload: tc.workload, seed: 3, size: "tiny", workdir: t.TempDir(), trace: traced, hooks: tc.h}
				rep, err := runWorkload(context.Background(), cfg, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Correct || rep.Failed == 0 {
					t.Fatalf("fault went unnoticed: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
			})
		}
	}
}

// tamperCache rewrites every persisted result in dir into different,
// still well-formed JSON.
func tamperCache(dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		data = bytes.Replace(data, []byte(`"Makespan":`), []byte(`"Makespan":1`), 1)
		if err := os.WriteFile(f, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90", v, pct)
	}
	if v, _ := tail(xs[:5]); v != 1 {
		t.Errorf("tail of 5 samples = %v, want the smallest", v)
	}
	s := &span{dur: 10, children: []*span{{start: 1, dur: 2}, {start: 2, dur: 2}, {start: 8, dur: 5}}}
	if got := s.self(); got != 5 {
		t.Errorf("self time %v, want 5 (children cover [1,4] and [8,10])", got)
	}
}
