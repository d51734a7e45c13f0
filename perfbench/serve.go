package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"time"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/serve"
)

// The serve workload is the what-if client of llserve: one in-process
// replica with the default configuration, warmed until its cache is in
// equilibrium, then answering closed-loop batches over two HTTP
// connections (wall_rel). The traced run adds the latency ladder: open-loop
// Poisson traffic at three fixed rates, then at rising rates until the
// p99 limit is missed or the backlog grows.

const (
	serveConns = 2
	// p99LimitMS is the latency limit max_rate_rps is measured against.
	p99LimitMS = 60.0
	// warmRequests requests, sent closed loop and untimed, fill the
	// replica's cache before anything is measured.
	warmRequests = 5000
	// The fixed rungs run in rounds, one repetition of rungRequests per
	// rung, as many as fit in the time given and at least minRounds. A
	// search rung runs searchReps repetitions of searchSeconds of
	// arrivals, and at least rungRequests requests.
	rungRequests  = 400
	minRounds     = 3
	searchReps    = 5
	searchSeconds = 0.2
	// Closed-loop batches of batchRequests, at least minBatches of them,
	// time wall_rel and wall_s.
	minBatches    = 5
	batchRequests = 500
)

// searchAt are the max_rate_rps search rungs as fractions of the capacity
// the closed-loop batches measured; the search stops at the first
// failing rung.
var searchAt = []float64{0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.35, 1.5}

// serveRates are the fixed rungs r1 < r2 < r3, requests per second. They
// stay below the knee, where a percentile follows the service time rather
// than the machine's momentary load; the search finds the knee.
var serveRates = [3]float64{400, 800, 1200}

var endpointPath = map[string]string{
	serve.EndpointDecide:  "/v1/decide/linger",
	serve.EndpointNode:    "/v1/simulate/node",
	serve.EndpointCluster: "/v1/simulate/cluster",
}

// loadReq is one generated request.
type loadReq struct {
	Endpoint string
	Body     []byte
	Key      string      // serve.CacheKey of the normalized request
	Corpus   corpusShape // cluster requests: the trace corpus they synthesize
}

// The requests are cmd/llload's: its mix decide=1,node=1,cluster=1, and
// for variant v the body llload sends for v (llloadRequest). llload draws
// v uniformly from its -distinct variants (default 8), so a replica
// misses on the first 16 requests and then only hits. The benchmark
// instead draws v by Zipf popularity over zipfVariants variants, more
// keys than the replica's cache holds, so that hits and misses (and
// evictions) both go on at equilibrium. That is an assumption, not a
// measurement of real traffic; serve.repeat_share, serve.hit_ratio and
// serve.cluster_miss_share report what each run saw. Four cluster
// variants share a corpus seed, so cluster misses share corpora.
const (
	zipfS        = 1.1
	zipfVariants = 4096
)

var llloadMix = []string{serve.EndpointDecide, serve.EndpointNode, serve.EndpointCluster}

// llloadRequest returns variant v of endpoint ep, as llload's genRequest
// builds it at -cluster-scale 1.
func llloadRequest(ep string, v int) (loadReq, error) {
	var q any
	var corpus corpusShape
	switch ep {
	case serve.EndpointDecide:
		q = &serve.DecideRequest{
			SourceUtil: 0.5 + 0.04*float64(v%10),
			DestUtil:   0.05 * float64(v%8),
			JobMB:      8,
			EpisodeAge: float64(5 * (v + 1)),
		}
	case serve.EndpointNode:
		q = &serve.NodeRequest{
			Utilization: 0.05 * float64(v%12),
			Duration:    200,
			Seed:        int64(v + 1),
		}
	default:
		c := &serve.ClusterRequest{
			Policy:        []string{"LL", "LF", "IE", "PM"}[v%4],
			Nodes:         8,
			NumJobs:       8,
			JobCPU:        60,
			TraceMachines: 2,
			TraceDays:     1,
			Seed:          int64(v/4 + 1),
		}
		q, corpus = c, corpusShape{Seed: c.Seed, Machines: c.TraceMachines, Days: c.TraceDays}
	}
	body, err := json.Marshal(q)
	if err != nil {
		return loadReq{}, err
	}
	norm, err := serve.DecodeRequest(ep, body, 1<<20)
	if err != nil {
		return loadReq{}, fmt.Errorf("generated request rejected: %w", err)
	}
	return loadReq{Endpoint: ep, Body: body, Key: serve.CacheKey(ep, norm), Corpus: corpus}, nil
}

// stream is a seeded request stream: each request an endpoint of
// llload's mix and a variant by Zipf popularity.
type stream struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newStream(rng *rand.Rand) *stream {
	return &stream{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, zipfVariants-1)}
}

// next returns the stream's next n requests.
func (st *stream) next(n int) ([]loadReq, error) {
	out := make([]loadReq, n)
	for i := range out {
		ep := llloadMix[st.rng.Intn(len(llloadMix))]
		var err error
		if out[i], err = llloadRequest(ep, int(st.zipf.Uint64())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traffic is what a cache or memoization claim depends on in a request
// stream: the share of requests whose key appeared earlier, the share of
// requests that are cluster misses (a cluster key's first request), and
// the share of cluster misses whose corpus appeared earlier.
type traffic struct {
	Repeat, ClusterMiss, CorpusReuse float64
}

// trafficCount follows a stream from its start and classifies each
// request by the first time its serve.CacheKey is seen: decide is
// answered inline, a key's first request is a miss and any later one a
// hit (or a singleflight wait on the first; or, once the cache has
// evicted the key, a miss again, which the replica's counters count).
type trafficCount struct {
	keys    map[string]bool
	corpora map[corpusShape]bool

	n, repeats, clusterMisses, reused int
}

func newTrafficCount() *trafficCount {
	return &trafficCount{keys: map[string]bool{}, corpora: map[corpusShape]bool{}}
}

// add counts q and returns its class: "inline", "hit" or "miss".
func (t *trafficCount) add(q loadReq) string {
	t.n++
	seen := t.keys[q.Key]
	t.keys[q.Key] = true
	if seen {
		t.repeats++
	}
	switch {
	case q.Endpoint == serve.EndpointDecide:
		return "inline"
	case seen:
		return "hit"
	}
	if q.Endpoint == serve.EndpointCluster {
		t.clusterMisses++
		if t.corpora[q.Corpus] {
			t.reused++
		}
		t.corpora[q.Corpus] = true
	}
	return "miss"
}

// reset starts a new count that keeps the keys and corpora seen so far.
func (t *trafficCount) reset() { t.n, t.repeats, t.clusterMisses, t.reused = 0, 0, 0, 0 }

func (t *trafficCount) shares() traffic {
	s := traffic{Repeat: float64(t.repeats) / float64(t.n), ClusterMiss: float64(t.clusterMisses) / float64(t.n)}
	if t.clusterMisses > 0 {
		s.CorpusReuse = float64(t.reused) / float64(t.clusterMisses)
	}
	return s
}

// missCorpora regenerates, after the traced repetitions, the corpus of
// each cluster miss in them, with the request's own inputs, and times it:
// the trace synthesis share of the misses. The server synthesizes it
// inside its handler, where the benchmark records no span.
func missCorpora(reps []*rep) (took time.Duration, calls, machineDays int, err error) {
	for _, rp := range reps {
		for i, q := range rp.Reqs {
			if q.Endpoint != serve.EndpointCluster || rp.Classes[i] != "miss" {
				continue
			}
			d, err := q.Corpus.generate()
			if err != nil {
				return 0, 0, 0, err
			}
			took += d
			calls++
			machineDays += q.Corpus.Machines * q.Corpus.Days
		}
	}
	return took, calls, machineDays, nil
}

// replica is one running in-process llserve.
type replica struct {
	base   string
	srv    *serve.Server
	served chan error
	reg    *obs.Registry
}

// startReplica builds a server with the default configuration, serves it
// on loopback and waits until /healthz answers 200.
func startReplica(client *http.Client, rec bool) (*replica, error) {
	cfg := serve.DefaultConfig()
	r := &replica{served: make(chan error, 1)}
	if rec {
		r.reg = obs.NewRegistry()
		cfg.Rec = obs.New(r.reg, nil)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv, r.base = srv, "http://"+ln.Addr().String()
	go func() { r.served <- srv.Serve(ln) }()
	resp, err := client.Get(r.base + "/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		_ = r.stop() // the failed readiness check is the error to report
		return nil, err
	}
	return r, nil
}

// stop drains the server and waits for Serve to return.
func (r *replica) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// rep is one repetition of a rung: the stream's next requests sent to
// the run's replica.
type rep struct {
	Reqs    []loadReq
	Classes []string // per request: inline, hit or miss (see trafficCount)
	Samples []sample
	Wall    time.Duration // first due time to last response
	Traffic traffic
}

// rung is one rate of the ladder, run as several repetitions so that a
// stall of the machine moves one repetition, not the rung.
type rung struct {
	Rate       float64
	Requests   int
	P50, P99   float64 // medians over repetitions, ms from due time; failed or abandoned requests are +Inf
	Growing    bool    // the backlog grew in most repetitions
	Throughput float64 // median over repetitions of responses per second of wall

	p50, p99, rates []float64 // per repetition
	grew            int
}

// add records one repetition and updates the rung's summary.
func (r *rung) add(rp *rep) {
	lat := latencies(rp.Samples)
	ok := 0
	for _, s := range rp.Samples {
		if s.OK() {
			ok++
		}
	}
	if backlogGrew(rp.Samples) {
		r.grew++
	}
	r.p50 = append(r.p50, quantile(lat, 0.5))
	r.p99 = append(r.p99, quantile(lat, 0.99))
	r.rates = append(r.rates, float64(ok)/rp.Wall.Seconds())
	r.Requests += len(rp.Samples)
	r.P50, r.P99 = median(r.p50), median(r.p99)
	r.Growing = 2*r.grew > len(r.p50)
	r.Throughput = median(r.rates)
}

// Pass reports whether the rung met the p99 limit without a growing
// backlog.
func (r *rung) Pass() bool { return r.P99 <= p99LimitMS && !r.Growing }

// serveRun is one replica and the request stream it is fed, from the
// first request of the run to the last.
type serveRun struct {
	client  *http.Client
	rp      *replica
	st      *stream
	dueRNG  *rand.Rand
	traffic *trafficCount
	tracer  *Tracer     // records the traced repetitions' spans
	setup   *setupTimer // times replica set-ups between batches
	ref     *refKernel
	bodies  map[string][32]byte // first response body hash per cache key
	failed  int
	sent    int
	reps    int
}

// newServeRun starts a replica, with its serve.* counters on when rec,
// and warms it with warmRequests of the stream seeded seed.
func newServeRun(seed int64, rec bool) (*serveRun, error) {
	client := newClient()
	rp, err := startReplica(client, rec)
	if err != nil {
		client.CloseIdleConnections()
		return nil, err
	}
	sr := &serveRun{
		client:  client,
		rp:      rp,
		st:      newStream(rand.New(rand.NewSource(exp.DeriveSeed(seed, 0)))),
		dueRNG:  rand.New(rand.NewSource(exp.DeriveSeed(seed, 1))),
		traffic: newTrafficCount(),
		bodies:  map[string][32]byte{},
		ref:     newRefKernel(),
	}
	if _, err := sr.send(0, warmRequests, false, 0); err != nil {
		_ = sr.close() // the warm-up error is the one to report
		return nil, err
	}
	return sr, nil
}

// close stops the replica and waits for it to drain.
func (sr *serveRun) close() error {
	defer sr.client.CloseIdleConnections()
	return sr.rp.stop()
}

// send sends the stream's next n requests at rate, or all at once when
// rate is 0 (closed loop over the two connections), and checks every
// response. A traced repetition records spans. maxBacklog > 0 abandons
// the rest of the repetition once more requests than that are pending.
func (sr *serveRun) send(rate float64, n int, traced bool, maxBacklog int) (*rep, error) {
	reqs, err := sr.st.next(n)
	if err != nil {
		return nil, err
	}
	due := make([]time.Duration, n)
	if rate > 0 {
		due = poissonDue(sr.dueRNG, n, rate)
	}
	urls := make([]string, n)
	bodies := make([][]byte, n)
	cls := make([]string, n)
	sr.traffic.reset()
	for i, r := range reqs {
		urls[i], bodies[i] = sr.rp.base+endpointPath[r.Endpoint], r.Body
		cls[i] = sr.traffic.add(r)
	}
	var tr *Tracer
	if traced {
		tr = sr.tracer
	}
	id := sr.reps
	sr.reps++
	span := tr.Begin("load.rung", 0, int64(id))
	samples := openLoop{Client: sr.client, Conns: serveConns, MaxBacklog: maxBacklog}.run(urls, bodies, due)
	tr.End(span)
	r := &rep{Reqs: reqs, Classes: cls, Samples: samples, Traffic: sr.traffic.shares()}
	for i, s := range samples {
		if s.Abandoned {
			continue
		}
		r.Wall = max(r.Wall, s.Done.Sub(samples[0].Due))
		sr.sent++
		if !sr.check(reqs[i], s) {
			sr.failed++
		}
		if traced {
			reqID := int64(id)*1_000_000 + int64(i)
			rs := tr.Add("load.request", span, reqID, s.Due, s.Done)
			tr.Add("serve."+cls[i], rs, reqID, s.Sent, s.Done)
		}
	}
	return r, nil
}

// runRungs runs rounds repetitions of n requests at each of rates,
// interleaved across the rates so that a slow spell of the machine lands
// in one repetition of several rungs rather than in every repetition of
// one. A repetition is abandoned once its backlog passes a quarter of n.
func (sr *serveRun) runRungs(rates []float64, n, rounds int) ([]*rung, error) {
	rungs := make([]*rung, len(rates))
	for i, rate := range rates {
		rungs[i] = &rung{Rate: rate}
	}
	for k := 0; k < rounds; k++ {
		for _, r := range rungs {
			rp, err := sr.send(r.Rate, n, false, n/4)
			if err != nil {
				return nil, err
			}
			r.add(rp)
		}
	}
	return rungs, nil
}

// check verifies one response: 200, and byte-identical to every other
// response to the same cache key in this run, whether hit or miss.
func (sr *serveRun) check(q loadReq, s sample) bool {
	if !s.OK() {
		logf("serve: %s request failed: status %d, err %v", q.Endpoint, s.Status, s.Err)
		return false
	}
	h := sha256.Sum256(s.Body)
	if prev, ok := sr.bodies[q.Key]; ok {
		if prev != h {
			logf("serve: %s response differs from an earlier response to the same key", q.Endpoint)
			return false
		}
		return true
	}
	sr.bodies[q.Key] = h
	return true
}

// backlogGrew reports whether, at the last due time, more than a tenth of
// the repetition was due but unfinished: the arrivals outpaced the server
// by a tenth over the repetition. A server that keeps up near its knee
// holds a queue that comes and goes, which a smaller threshold mistakes
// for growth.
func backlogGrew(samples []sample) bool {
	if len(samples) == 0 {
		return false
	}
	last := samples[len(samples)-1].Due
	pending := 0
	for _, s := range samples {
		if s.Abandoned || s.Done.After(last) {
			pending++
		}
	}
	return pending > len(samples)/10
}

// maxRate returns the highest rate meeting the p99 limit without a
// growing backlog, from rungs in rising rate order. Between the last
// passing rung and the first failing one it interpolates: on p99 when the
// failing rung missed the limit with its backlog in check, and otherwise
// by the throughput the failing rung sustained, which is the server's
// capacity once the backlog grows.
func maxRate(rungs []*rung) float64 {
	loR, loP := 0.0, 0.0
	for _, r := range rungs {
		switch {
		case r.Pass():
			loR, loP = r.Rate, r.P99
			continue
		case r.Growing:
			return min(max(r.Throughput, loR), r.Rate)
		case math.IsInf(r.P99, 1):
			return loR
		}
		return loR + (p99LimitMS-loP)/(r.P99-loP)*(r.Rate-loR)
	}
	return loR
}

// fixedRounds is how many rounds of the fixed rungs fit in d, and at
// least minRounds.
func fixedRounds(d time.Duration) int {
	round := 0.0
	for _, r := range serveRates {
		round += rungRequests / r
	}
	return max(minRounds, int(math.Round(d.Seconds()/round)))
}

func runServe(cfg runConfig) (*result, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	st := &setupTimer{setup: func() (func(), error) {
		rp, err := startReplica(client, false)
		if err != nil {
			return nil, err
		}
		// An idle replica that fails to drain does not change the
		// set-up time; the measured replica checks its own stop.
		return func() { _ = rp.stop() }, nil
	}}
	st.time(setupFirst)
	if st.err != nil {
		return nil, st.err
	}
	sr, err := newServeRun(cfg.Seed, cfg.Trace)
	if err != nil {
		return nil, err
	}
	sr.setup = st
	var res *result
	if cfg.Trace {
		res, err = sr.traced(cfg)
	} else {
		res, err = sr.measure(cfg)
	}
	if cerr := sr.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

// batches answers closed-loop batches of batchRequests for budget, each
// followed by set-ups and a reference block, and returns the batch walls in seconds,
// each over the reference blocks around it, and the reference blocks.
func (sr *serveRun) batches(budget time.Duration) (walls, rel, refs []float64, err error) {
	ref := sr.ref
	refs = []float64{ref.block(refMin)}
	start := time.Now()
	for len(walls) < minBatches || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		rp, err := sr.send(0, batchRequests, false, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		sr.setup.time(setupEach)
		refs = append(refs, ref.block(refBlockFor(rp.Wall.Seconds())))
		n := len(refs)
		walls = append(walls, rp.Wall.Seconds())
		rel = append(rel, rp.Wall.Seconds()/((refs[n-2]+refs[n-1])/2))
	}
	if sr.setup.err != nil {
		return nil, nil, nil, fmt.Errorf("set-up: %w", sr.setup.err)
	}
	return walls, rel, refs, nil
}

// measure takes the end-to-end metrics from a warmed replica: closed-loop
// batches for the whole run.
func (sr *serveRun) measure(cfg runConfig) (*result, error) {
	walls, rel, _, err := sr.batches(cfg.Seconds)
	if err != nil {
		return nil, err
	}
	logf("serve: %d closed-loop batches of %d: median %.3f s, %.2f x reference", len(walls), batchRequests, median(walls), median(rel))
	m := map[string]float64{
		"setup_s":          sr.setup.seconds(),
		"wall_rel":         median(rel),
		"retained_heap_mb": sr.ref.retainedMB(),
	}
	return &result{Attempted: sr.sent, Failed: sr.failed, Metrics: m}, nil
}

// ladder runs the latency ladder on the warmed replica, untraced: the
// fixed rungs for about fixed, then the max_rate_rps search from the
// capacity that closed-loop batches for about batch measure. It reports
// the ladder's metrics: raw wall-clock figures, per-layer because the
// shared machine's drift moves them by more than any bound allows.
func (sr *serveRun) ladder(batch, fixed time.Duration) (map[string]float64, error) {
	walls, _, refs, err := sr.batches(batch)
	if err != nil {
		return nil, err
	}
	rungs, err := sr.runRungs(serveRates[:], rungRequests, fixedRounds(fixed))
	if err != nil {
		return nil, err
	}
	capacity := batchRequests / median(walls)
	for _, f := range searchAt {
		if !rungs[len(rungs)-1].Pass() {
			break
		}
		rate := f * capacity
		r, err := sr.runRungs([]float64{rate}, max(rungRequests, int(rate*searchSeconds)), searchReps)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, r...)
	}
	m := map[string]float64{"wall_s": median(walls), "ref_ms": 1000 * median(refs), "max_rate_rps": maxRate(rungs)}
	for i, r := range rungs {
		logf("serve: %.0f req/s: p50 %.2f ms, p99 %.2f ms over %d requests, backlog grew %t, %.0f responses/s",
			r.Rate, r.P50, r.P99, r.Requests, r.Growing, r.Throughput)
		if i >= len(serveRates) {
			continue
		}
		name := fmt.Sprintf("r%d", i+1)
		if math.IsInf(r.P99, 1) {
			return nil, fmt.Errorf("rung %s: over 1%% of requests failed or were abandoned", name)
		}
		m["p50_ms."+name] = r.P50
		m["p99_ms."+name] = r.P99
	}
	return m, nil
}

// traced runs the latency ladder for half the run, then rounds of the
// fixed rungs for the other half, with its serve.* counters on: r2
// untraced, then r1, r2 and r3 traced. It reports the per-layer metrics;
// tracing.overhead_s is the traced r2 median p50 minus the untraced one.
func (sr *serveRun) traced(cfg runConfig) (*result, error) {
	m, err := sr.ladder(cfg.Seconds/6, cfg.Seconds/4)
	if err != nil {
		return nil, err
	}
	sr.tracer = NewTracer()
	var baseP50, tracedP50 []float64
	var done []*rep
	counters := map[string]float64{}
	for k := 0; k < fixedRounds(cfg.Seconds/2); k++ {
		base, err := sr.send(serveRates[1], rungRequests, false, 0)
		if err != nil {
			return nil, err
		}
		baseP50 = append(baseP50, quantile(latencies(base.Samples), 0.5))
		for i, rate := range serveRates {
			before := sr.rp.reg.CounterValues()
			rp, err := sr.send(rate, rungRequests, true, 0)
			if err != nil {
				return nil, err
			}
			for name, v := range sr.rp.reg.CounterValues() {
				counters[name] += float64(v - before[name])
			}
			done = append(done, rp)
			if i == 1 {
				tracedP50 = append(tracedP50, quantile(latencies(rp.Samples), 0.5))
			}
		}
	}
	spans := sr.tracer.Spans()
	if err := CheckNesting(spans); err != nil {
		return nil, fmt.Errorf("span recorder: %w", err)
	}
	// A request span runs from due to done and its child from sent to
	// done, so the request's self time is its wait for a connection.
	self := SelfTimes(spans)
	var queue []float64
	for _, s := range spans {
		if s.Name == "load.request" {
			queue = append(queue, ms(self[s.ID]))
		}
	}

	byClass := map[string][]float64{}
	var late, repeat, clusterMiss, reuse []float64
	for _, rp := range done {
		for i, s := range rp.Samples {
			late = append(late, ms(s.Late()))
			byClass[rp.Classes[i]] = append(byClass[rp.Classes[i]], ms(s.Done.Sub(s.Sent)))
		}
		t := rp.Traffic
		repeat, clusterMiss, reuse = append(repeat, t.Repeat), append(clusterMiss, t.ClusterMiss), append(reuse, t.CorpusReuse)
	}
	genTook, genCalls, machineDays, err := missCorpora(done)
	if err != nil {
		return nil, err
	}
	for name, v := range map[string]float64{
		"serve.hits":               counters[obs.ServeCacheHits],
		"serve.misses":             counters[obs.ServeCacheMisses],
		"serve.dedup_waits":        counters[obs.ServeDedupWaits],
		"serve.shed":               counters[obs.ServeShed],
		"serve.evictions":          counters[obs.ServeCacheEvictions],
		"serve.hit_p50_ms":         median(byClass["hit"]),
		"serve.miss_p50_ms":        median(byClass["miss"]),
		"serve.miss_p99_ms":        quantile(byClass["miss"], 0.99),
		"serve.inline_p50_ms":      median(byClass["inline"]),
		"serve.repeat_share":       median(repeat),
		"serve.cluster_miss_share": median(clusterMiss),
		"serve.corpus_reuse_share": median(reuse),
		"corpus.reuse_share":       median(reuse),
		"trace.generate_s":         genTook.Seconds(),
		"trace.generate_calls":     float64(genCalls),
		"trace.machine_days":       float64(machineDays),
		"load.late_ms_max":         quantile(late, 1),
		"load.late_ms_p99":         quantile(late, 0.99),
		"load.queue_p50_ms":        median(queue),
		"tracing.overhead_s":       (median(tracedP50) - median(baseP50)) / 1000,
		"error_rate":               float64(sr.failed) / float64(sr.sent),
	} {
		m[name] = v
	}
	if lookups := m["serve.hits"] + m["serve.misses"]; lookups > 0 {
		m["serve.hit_ratio"] = m["serve.hits"] / lookups
	}
	return &result{Attempted: sr.sent, Failed: sr.failed, Metrics: m, Tracer: sr.tracer}, nil
}
