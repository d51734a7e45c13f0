// Command perfbench is the repository's end-to-end benchmark. It drives
// the program only through its public functions, in one process, on one
// of four workloads:
//
//	figures     every step cmd/experiments runs, at full scale
//	tournament  scenarios/tournament.json through a 2-agent loopback fabric
//	sweep       the Figure 5 node grid over derived seeds, same fabric
//	serve       open-loop what-if traffic against an in-process llserve
//
// Usage (from the repository root; perfbench/run.sh builds and runs it):
//
//	perfbench --workload figures --seed 1 --seconds 28 --trace 0
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it runs untraced and then traced, and reports the
// per-layer metrics taken from the spans the benchmark records around
// its calls into each layer. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Every output is
// checked; a mismatch is a failed operation. perfbench/README.md lists
// the metrics and how each is measured.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one emitted metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics every workload reports with --trace 0.
// wall_rel is the unit of work's wall time (a batch pass, or a serve
// batch of requests) in multiples of the reference computation timed
// around it (see refKernel); the raw wall times are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_rel", "x"},
	{"retained_heap_mb", "MB"},
}

// perLayer are the metrics every workload reports with --trace 1; a layer
// a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"trace.generate_s", "s"}, {"trace.generate_calls", "count"}, {"trace.machine_days", "count"},
	{"trace.fig4_s", "s"}, {"trace.sec32_s", "s"},
	{"workload.fig2_s", "s"}, {"workload.fig3_s", "s"},
	{"node.fig5_s", "s"}, {"node.task_s", "s"}, {"node.sim_s_per_s", "s/s"},
	{"cluster.fig7_8_s", "s"}, {"cluster.arrivals_s", "s"}, {"cluster.point_s", "s"},
	{"parallel.fig9_11_s", "s"}, {"apps.fig12_13_s", "s"}, {"apps.hybrid_s", "s"},
	{"scenario.expand_s", "s"}, {"scenario.task_s", "s"}, {"scenario.rank_s", "s"},
	{"fabric.run_s", "s"}, {"fabric.encode_s", "s"}, {"fabric.agent_busy_share", "share"},
	{"fabric.overhead_ms_per_point", "ms"},
	{"fabric.dispatched", "count"}, {"fabric.requeued", "count"}, {"fabric.retries", "count"},
	{"serve.hit_ratio", "share"}, {"serve.hits", "count"}, {"serve.misses", "count"},
	{"serve.dedup_waits", "count"}, {"serve.shed", "count"}, {"serve.evictions", "count"},
	{"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"}, {"serve.miss_p99_ms", "ms"},
	{"serve.inline_p50_ms", "ms"},
	{"serve.repeat_share", "share"}, {"serve.cluster_miss_share", "share"},
	{"serve.corpus_reuse_share", "share"}, {"corpus.reuse_share", "share"},
	{"load.late_ms_max", "ms"}, {"load.late_ms_p99", "ms"}, {"load.queue_p50_ms", "ms"},
	{"wall_s", "s"}, {"ref_ms", "ms"},
	{"p50_ms.r1", "ms"}, {"p99_ms.r1", "ms"},
	{"p50_ms.r2", "ms"}, {"p99_ms.r2", "ms"},
	{"p50_ms.r3", "ms"}, {"p99_ms.r3", "ms"},
	{"max_rate_rps", "1/s"},
	{"bench.pass_s", "s"}, {"bench.check_s", "s"},
	{"path.sum_s", "s"}, {"tracing.overhead_s", "s"},
	{"error_rate", "share"},
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds time.Duration
	Trace   bool
	Root    string // repository root: scenarios/ and testdata are read from here
}

// result is one run's outcome before encoding.
type result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
	Tracer    *Tracer // spans of the traced run; nil when untraced
}

// workloadDef is one entry of the benchmark's workload table.
type workloadDef struct {
	Name string
	Run  func(runConfig) (*result, error)
}

// workloads is the benchmark's workload table; BENCHMARK.json records why
// each was chosen.
var workloads = []workloadDef{
	{"figures", runFigures},
	{"tournament", runTournament},
	{"sweep", runSweep},
	{"serve", runServe},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// encode selects the metrics the mode reports. A missing end-to-end
// metric, or one that is not a positive finite number, is a benchmark
// bug; a per-layer metric a workload does not touch is 0.
func encode(res *result, traced bool) (*report, error) {
	out := &report{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   map[string]metricOut{},
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !traced && (!ok || !(v > 0) || math.IsInf(v, 0)) {
			return nil, fmt.Errorf("end-to-end metric %s = %v (present %t)", d.Name, v, ok)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: figures, tournament, sweep or serve")
		seed    = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds = flag.Int("seconds", 28, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs a traced pass too and reports per-layer metrics")
		spans   = flag.String("spans-dir", "", "directory the traced run's spans are written to (JSON lines)")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *spans); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, spansDir string) error {
	var w *workloadDef
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("--seconds must be >= 1 and --trace 0 or 1")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(root, "scenarios", "tournament.json")); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	// One core: the machine has two, and a run that kept both busy would
	// measure its neighbours' share of them. The workloads keep their two
	// workers, agents and connections; they take turns on that core.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{Seed: seed, Seconds: time.Duration(seconds) * time.Second, Trace: trace == 1, Root: root}
	res, err := w.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if cfg.Trace && spansDir != "" && res.Tracer != nil {
		if err := writeSpans(res.Tracer, filepath.Join(spansDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))); err != nil {
			return err
		}
	}
	rep, err := encode(res, cfg.Trace)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeSpans(t *Tracer, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// logf prints progress to standard error, keeping standard output for the
// result line.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
