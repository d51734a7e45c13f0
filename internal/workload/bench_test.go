package workload

import (
	"testing"

	"lingerlonger/internal/stats"
)

// The burst stream is the inner loop of every node simulation, so its
// sampling overhead multiplies into each figure.
func BenchmarkWindowedNext(b *testing.B) {
	w := NewWindowed(DefaultTable(), ConstantUtilization(0.5), 0, stats.NewRNG(42))
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += w.Next().Duration
	}
	_ = sink
}

// BenchmarkGeneratorFill compares per-draw sampling against the batched
// fill used by the Figure 2 CDF sampler.
func BenchmarkGeneratorFill(b *testing.B) {
	g := NewGenerator(DefaultTable(), 0.5, stats.NewRNG(7))
	buf := make([]float64, 256)
	b.Run("next-run-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range buf {
				buf[j] = g.NextRun()
			}
		}
	})
	b.Run("fill-runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.FillRuns(buf)
		}
	})
}
