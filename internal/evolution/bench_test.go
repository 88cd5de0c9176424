package evolution

import (
	"testing"

	"repro/internal/cluster"
)

// BenchmarkIterate measures one full evolution round — candidate
// generation with all four operators plus selection — on a 32-GPU
// cluster with 12 alive jobs and population 16. allocs/op makes the
// clone pool and the engine-owned workers visible in the benchmark
// trajectory: without the clone pool it reads 137 instead of 41.
func BenchmarkIterate(b *testing.B) {
	topo := cluster.Uniform(8, 4)
	ctx := testCtx(42, 12, topo)
	e := NewEngine(16, 0.2)
	e.Iterate(ctx) // warm population, workers, clone pool and memo
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Iterate(ctx)
	}
}

// BenchmarkScore measures the SRUF objective on one candidate via the
// one-pass aggregate load and the memoized throughput path.
func BenchmarkScore(b *testing.B) {
	topo := cluster.Uniform(8, 4)
	ctx := testCtx(42, 12, topo)
	ctx.prepare()
	s := op.refresh(cluster.NewSchedule(topo), ctx)
	rhos := SampleRhos(ctx)
	var d cluster.Digest
	Score(s, ctx, rhos, &d) // warm the memo and the digest
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Score(s, ctx, rhos, &d)
	}
}
