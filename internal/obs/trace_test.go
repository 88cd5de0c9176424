package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func TestSpanTreeOrderingAndTiming(t *testing.T) {
	tr := NewTracer(4, 64)
	ctx, root := tr.Start(context.Background(), "run-1", "run")
	cctx, cell := StartSpan(ctx, "cell")
	q := cell.StartChild("queued")
	q.End()
	sim := cell.StartChild("simulate")
	sim.Annotate("scheduler", "ones")
	_, inner := StartSpan(ContextWithSpan(cctx, sim), "evolution-interval")
	inner.End()
	sim.End()
	cell.End()
	root.End()

	node, ok := tr.Tree("run-1")
	if !ok {
		t.Fatal("trace missing")
	}
	if node.Name != "run" || len(node.Children) != 1 {
		t.Fatalf("root = %q with %d children", node.Name, len(node.Children))
	}
	cn := node.Children[0]
	if cn.Name != "cell" || len(cn.Children) != 2 {
		t.Fatalf("cell node = %q with %d children", cn.Name, len(cn.Children))
	}
	// Children keep creation order: queued before simulate.
	if cn.Children[0].Name != "queued" || cn.Children[1].Name != "simulate" {
		t.Errorf("child order = [%s, %s], want [queued, simulate]", cn.Children[0].Name, cn.Children[1].Name)
	}
	simNode := cn.Children[1]
	if simNode.Attrs["scheduler"] != "ones" {
		t.Errorf("simulate attrs = %v", simNode.Attrs)
	}
	if len(simNode.Children) != 1 || simNode.Children[0].Name != "evolution-interval" {
		t.Errorf("simulate children = %+v", simNode.Children)
	}
	if simNode.StartMS < cn.Children[0].StartMS {
		t.Error("simulate started before queued")
	}
	if node.InProgress || cn.InProgress {
		t.Error("ended spans still in progress")
	}
}

func TestSpanTreeInProgressAndCancelledAnnotation(t *testing.T) {
	tr := NewTracer(4, 64)
	ctx, root := tr.Start(context.Background(), "run-2", "run")
	_, cell := StartSpan(ctx, "cell")
	q := cell.StartChild("queued")
	q.End()
	sim := cell.StartChild("simulate")
	// A cancelled run ends the simulate span with an annotation and
	// leaves the root open (the run goroutine is still unwinding).
	sim.Annotate("cancelled", "true")
	sim.End()
	cell.End()

	node, ok := tr.Tree("run-2")
	if !ok {
		t.Fatal("trace missing")
	}
	if !node.InProgress {
		t.Error("open root must render in_progress")
	}
	cn := node.Children[0]
	simNode := cn.Children[1]
	if simNode.Attrs["cancelled"] != "true" {
		t.Errorf("cancelled annotation missing: %v", simNode.Attrs)
	}
	if simNode.InProgress {
		t.Error("ended simulate span still in progress")
	}
	root.End()
}

func TestTraceSpanBoundAndDrops(t *testing.T) {
	tr := NewTracer(2, 3)
	_, root := tr.Start(context.Background(), "r", "run")
	a := root.StartChild("a")
	b := root.StartChild("b") // hits the 3-span cap
	c := root.StartChild("c") // dropped
	if a == nil || b == nil {
		t.Fatal("spans under the cap must record")
	}
	if c != nil {
		t.Fatal("span over the cap must drop (nil)")
	}
	// Dropped spans are no-op parents: grandchildren drop too, silently.
	if gc := c.StartChild("grandchild"); gc != nil {
		t.Error("child of dropped span must be nil")
	}
	c.End()
	c.Annotate("k", "v")
	node, _ := tr.Tree("r")
	if node.DroppedSpans != 1 {
		t.Errorf("dropped = %d, want 1", node.DroppedSpans)
	}
	if len(node.Children) != 2 {
		t.Errorf("children = %d, want 2", len(node.Children))
	}
}

func TestTracerEvictsOldest(t *testing.T) {
	tr := NewTracer(2, 8)
	for i := 1; i <= 3; i++ {
		_, root := tr.Start(context.Background(), fmt.Sprintf("run-%d", i), "run")
		root.End()
	}
	if _, ok := tr.Tree("run-1"); ok {
		t.Error("oldest trace not evicted")
	}
	for _, id := range []string{"run-2", "run-3"} {
		if _, ok := tr.Tree(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}

	// A re-used id becomes the newest trace: start a, b, a, c and the
	// eviction takes b.
	tr = NewTracer(2, 8)
	for _, id := range []string{"a", "b", "a", "c"} {
		_, root := tr.Start(context.Background(), id, "run")
		root.End()
	}
	if _, ok := tr.Tree("b"); ok {
		t.Error("trace b survived; the restarted trace a should have outlived it")
	}
	for _, id := range []string{"a", "c"} {
		if _, ok := tr.Tree(id); !ok {
			t.Errorf("trace %s missing", id)
		}
	}
}

func TestNilTracerAndContextFreeSpans(t *testing.T) {
	var tr *Tracer
	ctx, root := tr.Start(context.Background(), "x", "run")
	if root != nil {
		t.Error("nil tracer must return nil span")
	}
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil || ctx2 != ctx {
		t.Error("StartSpan without a trace must be a no-op")
	}
	sp.Annotate("k", "v")
	sp.End()
}

func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTracer(2, 10_000)
	ctx, root := tr.Start(context.Background(), "r", "run")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_, s := StartSpan(ctx, "cell")
				s.Annotate("i", "x")
				ch := s.StartChild("inner")
				ch.End()
				s.End()
				if i%50 == 0 {
					tr.Tree("r") // render concurrently with recording
				}
			}
		}()
	}
	wg.Wait()
	root.End()
	node, _ := tr.Tree("r")
	if len(node.Children) != 8*200 {
		t.Errorf("recorded %d cells, want %d", len(node.Children), 8*200)
	}
}
