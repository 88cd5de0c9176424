// Package schedulers contains the ONES scheduler driver and the baseline
// policies it is evaluated against in the paper: DRL, Tiresias and Optimus
// (Table 3), plus simple FIFO/SJF extras used for ablations and tests.
package schedulers

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/simulator"
)

// waitingJobs returns the alive jobs without GPUs, in arrival order.
func waitingJobs(view *simulator.View) []simulator.JobView {
	var out []simulator.JobView
	for _, j := range view.Jobs {
		if !j.Running {
			out = append(out, j)
		}
	}
	sort.SliceStable(out, func(i, k int) bool { return out[i].Submit < out[k].Submit })
	return out
}

// placeGang assigns `gpus` idle GPUs to the job with an even split of
// `batch`, preferring contiguous placement (lowest-index idle GPUs, which
// the reorder convention keeps packed). Returns false without modifying s
// when not enough GPUs are idle.
func placeGang(s *cluster.Schedule, id cluster.JobID, gpus, batch int) bool {
	idle := s.IdleGPUs()
	if len(idle) < gpus || gpus <= 0 {
		return false
	}
	if batch < gpus {
		batch = gpus
	}
	base := batch / gpus
	rem := batch % gpus
	for i := 0; i < gpus; i++ {
		b := base
		if i < rem {
			b++
		}
		s.SetSlot(idle[i], id, b)
	}
	return true
}

// clampBatchToMemory shrinks a (gpus, batch) request so the per-GPU batch
// fits the model's memory cap.
func clampBatchToMemory(gpus, batch, maxPerGPU int) int {
	if maxPerGPU <= 0 {
		return batch
	}
	if max := gpus * maxPerGPU; batch > max {
		return max
	}
	return batch
}

// FIFO is the simplest baseline: first-come first-served gang scheduling
// with the user-requested fixed size, no preemption, checkpoint-based
// starts. It exists for tests and as a floor in ablation benches.
type FIFO struct{}

// NewFIFO returns a FIFO scheduler.
func NewFIFO() *FIFO { return &FIFO{} }

// Name implements simulator.Scheduler.
func (f *FIFO) Name() string { return "FIFO" }

// TickInterval implements simulator.Scheduler: FIFO is event-driven.
func (f *FIFO) TickInterval() float64 { return 0 }

// CostKind implements simulator.Scheduler.
func (f *FIFO) CostKind() simulator.CostKind { return simulator.CostCheckpoint }

// ManagesLR implements simulator.Scheduler: FIFO runs jobs as black boxes.
func (f *FIFO) ManagesLR() bool { return false }

// Decide implements simulator.Scheduler: admit waiting jobs in arrival
// order while they fit; never touch running jobs.
func (f *FIFO) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	waiting := waitingJobs(view)
	if len(waiting) == 0 {
		return nil
	}
	s := view.Current.Clone()
	changed := false
	for _, j := range waiting {
		batch := clampBatchToMemory(j.ReqGPUs, j.ReqBatch, j.Task.Profile.MaxPerGPU)
		if placeGang(s, j.ID, j.ReqGPUs, batch) {
			changed = true
		} else {
			break // strict FIFO: the head of the queue blocks
		}
	}
	if !changed {
		return nil
	}
	return s
}

// SJF schedules the waiting job with the smallest requested work first
// (using dataset size × base epochs as the size proxy), still gang and
// non-preemptive. Used in ablation benches.
type SJF struct{}

// NewSJF returns an SJF scheduler.
func NewSJF() *SJF { return &SJF{} }

// Name implements simulator.Scheduler.
func (s *SJF) Name() string { return "SJF" }

// TickInterval implements simulator.Scheduler.
func (s *SJF) TickInterval() float64 { return 0 }

// CostKind implements simulator.Scheduler.
func (s *SJF) CostKind() simulator.CostKind { return simulator.CostCheckpoint }

// ManagesLR implements simulator.Scheduler: SJF runs jobs as black boxes.
func (s *SJF) ManagesLR() bool { return false }

// Decide implements simulator.Scheduler.
func (s *SJF) Decide(trigger simulator.Trigger, view *simulator.View) *cluster.Schedule {
	waiting := waitingJobs(view)
	if len(waiting) == 0 {
		return nil
	}
	sort.SliceStable(waiting, func(i, k int) bool {
		wi := float64(waiting[i].Task.DatasetSize) * waiting[i].Task.Profile.BaseEpochs
		wk := float64(waiting[k].Task.DatasetSize) * waiting[k].Task.Profile.BaseEpochs
		return wi < wk
	})
	sched := view.Current.Clone()
	changed := false
	for _, j := range waiting {
		batch := clampBatchToMemory(j.ReqGPUs, j.ReqBatch, j.Task.Profile.MaxPerGPU)
		if placeGang(sched, j.ID, j.ReqGPUs, batch) {
			changed = true
		}
	}
	if !changed {
		return nil
	}
	return sched
}
