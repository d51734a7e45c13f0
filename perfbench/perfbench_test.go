package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lingerlonger/internal/scenario"
	"lingerlonger/internal/workload"
)

// repoRoot is the repository root, one level above this package.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestRequestStreamIsAFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) ([]loadReq, []time.Duration) {
		rng := rand.New(rand.NewSource(seed))
		reqs, err := newStream(rng).next(rungRequests)
		if err != nil {
			t.Fatal(err)
		}
		return reqs, poissonDue(rng, rungRequests, 400)
	}
	a, da := gen(7)
	b, db := gen(7)
	c, dc := gen(8)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(da, db) {
		t.Error("one seed gave two request streams")
	}
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(da, dc) {
		t.Error("two seeds gave the same request stream")
	}
	// A run takes the stream in pieces; the pieces join to the same stream.
	st := newStream(rand.New(rand.NewSource(7)))
	head, err := st.next(250)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := st.next(rungRequests - 250)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(append(head, tail...), a) {
		t.Error("the stream taken in two pieces differs from the stream taken at once")
	}
	// From its start, a stream's Zipf popularity repeats about half of
	// its first 400 keys, and cluster misses share corpora.
	count := newTrafficCount()
	for _, q := range a {
		count.add(q)
	}
	tr := count.shares()
	if tr.Repeat < 0.4 || tr.Repeat > 0.6 {
		t.Errorf("repeat share %.3f, want about half", tr.Repeat)
	}
	if tr.ClusterMiss < 0.1 || tr.ClusterMiss > 0.25 {
		t.Errorf("cluster-miss share %.3f, want about a third of the misses", tr.ClusterMiss)
	}
	if tr.CorpusReuse <= 0 {
		t.Errorf("cluster misses share no corpus (reuse %.3f)", tr.CorpusReuse)
	}
	byEndpoint := map[string]int{}
	for i, r := range a {
		if r.Endpoint == "" || r.Key == "" || len(r.Body) == 0 {
			t.Fatalf("request %d incomplete: %+v", i, r)
		}
		byEndpoint[r.Endpoint]++
	}
	for _, ep := range llloadMix {
		if n := byEndpoint[ep]; 4*n < len(a) || 5*n > 2*len(a) {
			t.Errorf("%d %s requests of %d, want about a third", n, ep, len(a))
		}
	}
}

// The bodies are llload's: variant 0 of each endpoint is the request
// llload sends for variant 0.
func TestRequestsAreLlloadBodies(t *testing.T) {
	want := map[string]string{
		"decide":  `{"sourceUtil":0.5,"destUtil":0,"jobMB":8,"episodeAge":5}`,
		"node":    `{"utilization":0,"duration":200,"seed":1}`,
		"cluster": `{"policy":"LL","nodes":8,"seed":1,"numJobs":8,"jobCPU":60,"traceMachines":2,"traceDays":1}`,
	}
	for ep, body := range want {
		r, err := llloadRequest(ep, 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(r.Body) != body {
			t.Errorf("%s variant 0: %s, want %s", ep, r.Body, body)
		}
	}
}

func TestPointSpecsAreAFunctionOfTheSeed(t *testing.T) {
	root := repoRoot(t)
	for _, file := range []string{"node.json", "tournament.json"} {
		data, err := os.ReadFile(filepath.Join(root, "scenarios", file))
		if err != nil {
			t.Fatal(err)
		}
		specs := func(seed int64) string {
			spec, err := scenario.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			all, err := sweepSpecs(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(all)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if specs(3) != specs(3) {
			t.Errorf("%s: one seed gave two point lists", file)
		}
		if specs(3) == specs(4) {
			t.Errorf("%s: two seeds gave the same point list", file)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestEmittedNamesAreWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !nameRE.MatchString(strings.ReplaceAll(d.Unit, "/", "_")) {
			t.Errorf("metric %q unit %q is not well formed", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload %q is not well formed", w.Name)
		}
	}
	// Span names become per-layer metric names; every layer a batch
	// workload records must be in the catalogue.
	table := workload.DefaultTable()
	for _, st := range figureSteps(1, figuresConfig(true), table, nil) {
		if !seen[st.layer+"_s"] {
			t.Errorf("figure layer %q has no per-layer metric", st.layer)
		}
	}
	for _, layer := range []string{"bench.pass", "bench.check", "scenario.expand", "scenario.task",
		"scenario.rank", "fabric.run", "fabric.encode", "node.task"} {
		if !seen[layer+"_s"] {
			t.Errorf("layer %q has no per-layer metric", layer)
		}
	}
}

// spanSet builds spans by hand: a root with a sequential child, two
// concurrent children, and a grandchild.
func spanSet() []Span {
	return []Span{
		{ID: 1, Parent: 0, Name: "bench.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "scenario.expand", Start: 0, End: 10},
		{ID: 3, Parent: 1, Name: "fabric.run", Start: 12, End: 90},
		{ID: 4, Parent: 3, Name: "scenario.task", Start: 15, End: 60},
		{ID: 5, Parent: 3, Name: "scenario.task", Start: 20, End: 85},
		{ID: 6, Parent: 4, Name: "trace.generate", Start: 16, End: 40},
	}
}

func TestSpansNestAndSelfTimesAreNonNegative(t *testing.T) {
	spans := spanSet()
	if err := CheckNesting(spans); err != nil {
		t.Fatal(err)
	}
	self := SelfTimes(spans)
	want := map[int]time.Duration{1: 100 - 10 - 78, 2: 10, 3: 78 - 70, 4: 45 - 24, 5: 65, 6: 24}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self %v, want %v", id, self[id], w)
		}
		if self[id] < 0 {
			t.Errorf("span %d has negative self time", id)
		}
	}
	bad := append(spanSet(), Span{ID: 7, Parent: 3, Name: "late", Start: 80, End: 95})
	if CheckNesting(bad) == nil {
		t.Error("a child outliving its parent passed the nesting check")
	}
}

func TestBlockingPathSumsToTheRoot(t *testing.T) {
	path := BlockingPath(spanSet(), 1)
	sum := time.Duration(0)
	for _, d := range path {
		if d < 0 {
			t.Errorf("negative time on the path: %v", path)
		}
		sum += d
	}
	if sum != 100 {
		t.Errorf("path %v sums to %v, want the root's 100", path, sum)
	}
	// The later-finishing task (5) is on the path; task 4 and its
	// grandchild run concurrently with it and are off the path.
	want := map[string]time.Duration{"bench.pass": 12, "scenario.expand": 10, "fabric.run": 13, "scenario.task": 65}
	if !reflect.DeepEqual(path, want) {
		t.Errorf("path %v, want %v", path, want)
	}
}

func TestTracedBatchPathMatchesWall(t *testing.T) {
	br, err := runBatch(runConfig{Seconds: 200 * time.Millisecond, Trace: true}, noSetup(), func(tr *Tracer, root int, brk func()) (*passOut, error) {
		a := tr.Begin("scenario.expand", root, -1)
		time.Sleep(2 * time.Millisecond)
		tr.End(a)
		run := tr.Begin("fabric.run", root, -1)
		done := make(chan struct{})
		for i := 0; i < 2; i++ {
			go func(i int) {
				id := tr.Begin("scenario.task", run, int64(i))
				time.Sleep(time.Duration(3+2*i) * time.Millisecond)
				tr.End(id)
				done <- struct{}{}
			}(i)
		}
		<-done
		<-done
		tr.End(run)
		return &passOut{Output: []byte("same"), Attempted: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Roots) == 0 || br.Failed != 0 {
		t.Fatalf("traced passes %d, failed %d", len(br.Roots), br.Failed)
	}
	m := br.layerMetrics()
	sum := 0.0
	for _, name := range []string{"bench.pass_s", "scenario.expand_s", "fabric.run_s", "scenario.task_s"} {
		sum += m[name]
	}
	if math.Abs(sum-m["path.sum_s"]) > 1e-9 || m["path.sum_s"] <= 0 {
		t.Errorf("layer times sum to %v, path.sum_s %v", sum, m["path.sum_s"])
	}
	if m["scenario.task_s"] < 0.005 {
		t.Errorf("blocking path missed the slower task: %v", m)
	}
}

func noSetup() *setupTimer {
	return &setupTimer{setup: func() (func(), error) { return func() {}, nil }}
}

// Every part of an untraced pass is divided by the reference blocks just
// before and after it, wall_rel sums the parts' medians over the passes,
// and the reference computation allocates nothing, so the program's heap
// cannot reach it.
func TestWallRelIsWallOverTheReferenceAroundIt(t *testing.T) {
	br, err := runBatch(runConfig{Seconds: 200 * time.Millisecond}, noSetup(), func(tr *Tracer, root int, brk func()) (*passOut, error) {
		time.Sleep(10 * time.Millisecond)
		brk()
		time.Sleep(20 * time.Millisecond)
		return &passOut{Output: []byte("same"), Attempted: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(br.Walls) < 2 || len(br.Refs) != 2*len(br.Walls)+1 || len(br.Parts) != len(br.Walls) {
		t.Fatalf("%d walls, %d reference blocks, %d ratio sets", len(br.Walls), len(br.Refs), len(br.Parts))
	}
	var first, second []float64
	for i, parts := range br.Parts {
		if len(parts) != 2 {
			t.Fatalf("pass %d: %d parts, want 2", i, len(parts))
		}
		for j, r := range parts {
			k := 2*i + j
			want := r * (br.Refs[k] + br.Refs[k+1]) / 2
			if !(r > 0) || want < 0.009 || want > br.Walls[i] {
				t.Errorf("pass %d part %d: ratio %v gives a part of %v s in a pass of %v s", i, j, r, want, br.Walls[i])
			}
		}
		first, second = append(first, parts[0]), append(second, parts[1])
	}
	if got, want := br.endToEnd(1)["wall_rel"], median(first)+median(second); math.Abs(got-want) > 1e-9*want {
		t.Errorf("wall_rel %v, want %v", got, want)
	}
	k := newRefKernel()
	if a := testing.AllocsPerRun(3, k.run); a != 0 {
		t.Errorf("reference computation allocates %v times", a)
	}
}

// A request that stalls its connection delays every request queued behind
// it, and the open-loop latency (from due time) must show that.
func TestStalledHandlerShowsInQueuedLatencies(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 3 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	n := 12
	urls, bodies, due := make([]string, n), make([][]byte, n), make([]time.Duration, n)
	for i := range urls {
		urls[i], bodies[i], due[i] = srv.URL, []byte("{}"), time.Duration(i)*10*time.Millisecond
	}
	samples := openLoop{Client: srv.Client(), Conns: 1}.run(urls, bodies, due)
	for i, s := range samples {
		if !s.OK() {
			t.Fatalf("request %d failed: %+v", i, s)
		}
	}
	// Requests 3..7 were due while request 2 held the only connection.
	for i := 3; i <= 7; i++ {
		queued := stall - due[i] + due[2]
		if got := samples[i].Latency(); got < queued-20*time.Millisecond {
			t.Errorf("request %d latency %v, want at least about %v", i, got, queued)
		}
		if server := samples[i].Done.Sub(samples[i].Sent); server > 50*time.Millisecond {
			t.Errorf("request %d itself took %v; the stall belongs to request 2", i, server)
		}
	}
	if lat := latencies(samples); quantile(lat, 1) < ms(stall) {
		t.Errorf("max latency %.1f ms below the stall", quantile(lat, 1))
	}
}

func TestFailedRequestsMissTheLimit(t *testing.T) {
	s := []sample{{Status: 200}, {Status: 429}, {Abandoned: true}}
	lat := latencies(s)
	if !math.IsInf(lat[1], 1) || !math.IsInf(lat[2], 1) || math.IsInf(lat[0], 1) {
		t.Errorf("latencies %v: refused and abandoned requests must be +Inf", lat)
	}
	if q := quantile([]float64{1, 2, math.Inf(1)}, 0.99); !math.IsInf(q, 1) {
		t.Errorf("p99 over a failed request = %v, want +Inf", q)
	}
	if q := quantile([]float64{1, 2, math.Inf(1)}, 0.5); q != 2 {
		t.Errorf("median = %v, want 2", q)
	}
}

func TestMaxRateInterpolates(t *testing.T) {
	rungs := []*rung{{Rate: 100, P99: 20}, {Rate: 200, P99: 40}, {Rate: 300, P99: 80}}
	if got := maxRate(rungs); math.Abs(got-(200+(p99LimitMS-40)/(80-40)*100)) > 1e-9 {
		t.Errorf("maxRate = %v", got)
	}
	rungs[2].Growing, rungs[2].P99, rungs[2].Throughput = true, 30, 260
	if got := maxRate(rungs); got != 260 {
		t.Errorf("a grown backlog must give the throughput the failing rung sustained, got %v", got)
	}
	rungs[2].Throughput = 150
	if got := maxRate(rungs); got != 200 {
		t.Errorf("a sustained rate below the last passing rung must stop there, got %v", got)
	}
}

// The quick seed-1 regeneration must equal cmd/experiments' golden.
func TestQuickFiguresMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure")
	}
	golden, err := os.ReadFile(filepath.Join(repoRoot(t), goldenPath))
	if err != nil {
		t.Fatal(err)
	}
	got, ops, err := regenerate(nil, 0, 1, figuresConfig(true), workload.DefaultTable(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("quick seed-1 report differs from %s", goldenPath)
	}
	if len(ops) != len(figureSteps(1, figuresConfig(true), workload.DefaultTable(), nil)) {
		t.Errorf("%d step timings", len(ops))
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestBenchmarkFileMatchesTheBenchmark(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || strings.ContainsAny(w.Why, "\n\r") || len(w.Why) > 200 {
			t.Errorf("workload %q: the reason it was chosen must be one line of at most 200 characters", w.Name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark emits %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark emits %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
	}
}
