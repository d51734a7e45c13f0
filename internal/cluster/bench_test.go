package cluster

import (
	"testing"

	"lingerlonger/internal/core"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// BenchmarkWorkload1Run times one full Figure 7-style batch run — the
// paper's Workload 1 (64 nodes, 128 x 600 CPU-s jobs, Linger-Longer) on a
// 16-machine, 7-day corpus. The end-to-end benchmark (perfbench/README.md)
// runs this configuration inside its figures workload. Corpus generation sits
// outside the timer, so the measurement is the simulation loop itself:
// window stepping, placement scans and the fine-grain burst service.
func BenchmarkWorkload1Run(b *testing.B) {
	tcfg := trace.DefaultConfig()
	tcfg.Days = 7
	corpus, err := trace.GenerateCorpus(tcfg, 16, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	cfg := Workload1(core.LingerLonger)
	cfg.Seed = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, corpus)
		if err != nil {
			b.Fatal(err)
		}
		if res.Incomplete > 0 {
			b.Fatal("incomplete")
		}
	}
}
