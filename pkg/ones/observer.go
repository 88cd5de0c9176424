package ones

import (
	"sync"
	"time"
)

// ProgressKind classifies a progress event.
type ProgressKind string

// Progress event kinds, in the order a run emits them.
const (
	// KindRunStart opens a batch of simulation work; Total counts the
	// cells the batch plans to touch (cached cells may never surface as
	// cell events).
	KindRunStart ProgressKind = "run-start"
	// KindCellStart marks one simulation cell beginning to execute on a
	// worker (cache hits emit no cell events).
	KindCellStart ProgressKind = "cell-start"
	// KindCellDone marks one simulation cell finishing; Result carries
	// its live metrics and Elapsed its wall time.
	KindCellDone ProgressKind = "cell-done"
	// KindExperimentStart and KindExperimentDone bracket the rendering
	// of one named experiment.
	KindExperimentStart ProgressKind = "experiment-start"
	KindExperimentDone  ProgressKind = "experiment-done"
	// KindRunDone closes the batch opened by KindRunStart.
	KindRunDone ProgressKind = "run-done"
)

// Progress is one streamed progress event. Fields beyond Kind are
// populated where meaningful: cell events carry the cell coordinates
// (and, on completion, live metrics); experiment events carry the
// experiment name; Done/Total count resolved cells against the batch
// plan.
type Progress struct {
	Kind ProgressKind

	// Cell coordinates (cell-start, cell-done).
	Cell      string // compact render, e.g. "ones/64gpu/trace1/steady"
	Scheduler string
	Capacity  int
	TraceSeed int64
	Scenario  string

	// Experiment name (experiment-start, experiment-done).
	Experiment string

	// Elapsed wall time (cell-done, experiment-done, run-done).
	Elapsed time.Duration

	// Result carries the finished cell's metrics (cell-done only) — the
	// live view a dashboard renders while the batch is still running.
	Result *Result

	// Done counts planned cells resolved so far — simulated, or served
	// from a cache (memory, disk, or another caller's computation);
	// Total the cells the current batch planned (0 when unknown). Cache
	// hits emit no cell events, so Done can advance between them.
	Done, Total int
}

// Observer receives streamed progress events. Callbacks may arrive from
// multiple goroutines concurrently (one per busy worker) but all
// complete before the Session method that triggered them returns, so an
// Observer needs no draining protocol of its own.
type Observer interface {
	Observe(p Progress)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(p Progress)

// Observe calls f.
func (f ObserverFunc) Observe(p Progress) { f(p) }

// multiObserver fans events to several observers in order.
type multiObserver []Observer

func (m multiObserver) Observe(p Progress) {
	for _, o := range m {
		o.Observe(p)
	}
}

// MultiObserver combines observers; each event is delivered to every
// observer in argument order. Nil observers are skipped.
func MultiObserver(obs ...Observer) Observer {
	var out multiObserver
	for _, o := range obs {
		if o != nil {
			out = append(out, o)
		}
	}
	return out
}

// Stream adapts the Observer interface to a channel, for consumers that
// prefer ranging over events to registering callbacks:
//
//	stream := ones.NewStream(16)
//	s, _ := ones.New(ones.WithObserver(stream))
//	go func() { defer stream.Close(); s.Run(ctx) }()
//	for p := range stream.Events() { ... }
//
// Sends block when the buffer is full, throttling the engine to the
// consumer rather than dropping events. Close ends the Events range
// (after buffered events drain) and is safe at any time, even while the
// run is still emitting: senders blocked on a full buffer unblock and
// discard their event, so an early-exiting consumer can Close without
// deadlocking the engine. Close is idempotent.
type Stream struct {
	mu       sync.Mutex
	ch       chan Progress
	done     chan struct{}
	sending  int
	closed   bool
	chClosed bool
}

// NewStream returns a Stream whose channel buffers up to buffer events
// (minimum 1).
func NewStream(buffer int) *Stream {
	if buffer < 1 {
		buffer = 1
	}
	return &Stream{ch: make(chan Progress, buffer), done: make(chan struct{})}
}

// Observe forwards the event into the channel, blocking while the
// buffer is full (or until the stream closes).
func (s *Stream) Observe(p Progress) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.sending++
	s.mu.Unlock()
	select {
	case s.ch <- p:
	case <-s.done: // closed mid-send: drop the event
	}
	s.mu.Lock()
	s.sending--
	s.closeChLocked()
	s.mu.Unlock()
}

// Events returns the receive side of the stream.
func (s *Stream) Events() <-chan Progress { return s.ch }

// Close ends the stream: blocked senders unblock, later Observe calls
// are discarded, and the Events channel closes once buffered events are
// consumed and in-flight sends retire.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	close(s.done)
	s.closeChLocked()
}

// closeChLocked closes the event channel once the stream is closed and
// the last in-flight send has retired. Callers hold s.mu.
func (s *Stream) closeChLocked() {
	if s.closed && s.sending == 0 && !s.chClosed {
		s.chClosed = true
		close(s.ch)
	}
}
