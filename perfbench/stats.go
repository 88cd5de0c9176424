package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// tailBeyond is the tail rule: a tail latency is read at the highest
// percentile that still leaves this many samples above it.
const tailBeyond = 10

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the sample that has exactly tailBeyond samples above it,
// and the percentile it sits at (the share of samples at or below it).
// With tailBeyond or fewer samples no sample qualifies and the smallest
// is returned at its percentile.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := len(s) - 1 - tailBeyond
	if i < 0 {
		i = 0
	}
	return s[i], 100 * float64(i+1) / float64(len(s))
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest rank.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// memDelta is the Go runtime's allocation work over one phase.
type memDelta struct {
	allocBytes, mallocs, gcCycles float64
}

// memSnapshot reads the runtime counters memDelta subtracts.
func memSnapshot() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		allocBytes: float64(after.TotalAlloc - before.TotalAlloc),
		mallocs:    float64(after.Mallocs - before.Mallocs),
		gcCycles:   float64(after.NumGC - before.NumGC),
	}
}
