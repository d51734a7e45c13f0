package cluster

import (
	"testing"

	"lingerlonger/internal/core"
	"lingerlonger/internal/obs"
)

func arrivalsConfig(p core.Policy, rate float64) ArrivalsConfig {
	cfg := DefaultConfig()
	cfg.Policy = p
	cfg.Nodes = 16
	cfg.JobCPU = 120
	return ArrivalsConfig{Cluster: cfg, Rate: rate, Duration: 1200}
}

func TestRunArrivalsBasics(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 20)
	res, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.05), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 {
		t.Fatal("no arrivals")
	}
	if res.Incomplete != 0 {
		t.Errorf("%d incomplete jobs in an underloaded system", res.Incomplete)
	}
	if res.Completed != res.Arrived {
		t.Errorf("completed %d of %d arrived", res.Completed, res.Arrived)
	}
	// Underloaded: response ~ service time, little queueing.
	if res.MeanResponse < 120 {
		t.Errorf("mean response %g below service demand", res.MeanResponse)
	}
	if res.MeanQueued < 0 {
		t.Errorf("negative queue time %g", res.MeanQueued)
	}
	if res.P95Response < res.MeanResponse {
		t.Errorf("P95 (%g) below mean (%g)", res.P95Response, res.MeanResponse)
	}
	// Expected arrivals: rate * duration = 60; Poisson spread.
	if res.Arrived < 30 || res.Arrived > 100 {
		t.Errorf("arrived %d jobs, want ~60", res.Arrived)
	}
}

func TestRunArrivalsLoadIncreasesResponse(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 21)
	low, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.02), corpus)
	if err != nil {
		t.Fatal(err)
	}
	high, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.12), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if high.OfferedLoad <= low.OfferedLoad {
		t.Fatal("offered load not increasing")
	}
	if high.MeanResponse < low.MeanResponse*0.95 {
		t.Errorf("response did not grow with load: low=%g high=%g",
			low.MeanResponse, high.MeanResponse)
	}
}

// The headline carries over to the open system: under load, lingering
// yields lower response times than eviction.
func TestRunArrivalsLingerBeatsEviction(t *testing.T) {
	corpus := testCorpus(t, 6, 1, 22)
	ll, err := RunArrivals(arrivalsConfig(core.LingerLonger, 0.10), corpus)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := RunArrivals(arrivalsConfig(core.ImmediateEviction, 0.10), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if ll.MeanResponse >= ie.MeanResponse {
		t.Errorf("LL response %g not below IE %g under load", ll.MeanResponse, ie.MeanResponse)
	}
}

func TestRunArrivalsRejectsBadConfig(t *testing.T) {
	corpus := testCorpus(t, 2, 1, 23)
	bad := arrivalsConfig(core.LingerLonger, 0)
	if _, err := RunArrivals(bad, corpus); err == nil {
		t.Error("zero rate accepted")
	}
	bad = arrivalsConfig(core.LingerLonger, 1)
	bad.Duration = 0
	if _, err := RunArrivals(bad, corpus); err == nil {
		t.Error("zero duration accepted")
	}
}

func TestRunArrivalsDeterministic(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 24)
	a, err := RunArrivals(arrivalsConfig(core.PauseAndMigrate, 0.06), corpus)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunArrivals(arrivalsConfig(core.PauseAndMigrate, 0.06), corpus)
	if err != nil {
		t.Fatal(err)
	}
	if a.Arrived != b.Arrived || a.MeanResponse != b.MeanResponse {
		t.Error("same seed produced different arrival runs")
	}
}

// Queue times must be non-negative for every job: a job can never be
// placed before it arrived (regression test for the arrival/boundary
// ordering).
func TestRunArrivalsNoTimeTravel(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 25)
	cfg := arrivalsConfig(core.LingerLonger, 0.15)
	ccfg := cfg.Cluster
	s, err := newSimulation(ccfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	_ = s
	res, err := RunArrivals(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanQueued < 0 {
		t.Errorf("negative mean queue time %g", res.MeanQueued)
	}
}

// TestRunArrivalsCountsEveryArrival pins the arrival loop's contract: the
// sim.events.fired counter fires once per arrival, and no arrival lands
// past the arrival window.
func TestRunArrivalsCountsEveryArrival(t *testing.T) {
	corpus := testCorpus(t, 4, 1, 26)
	cfg := arrivalsConfig(core.LingerLonger, 0.08)
	reg := obs.NewRegistry()
	cfg.Cluster.Rec = obs.New(reg, nil)
	res, err := RunArrivals(cfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(obs.SimEventsFired).Value(); got != int64(res.Arrived) || got == 0 {
		t.Errorf("sim.events.fired = %d, arrived %d", got, res.Arrived)
	}

	ccfg := cfg.Cluster
	ccfg.NumJobs = 0 // as RunArrivals: arrivals drive the population
	s, err := newSimulation(ccfg, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if arrived := s.runArrivals(cfg.Rate, cfg.Duration); arrived != res.Arrived || len(s.jobs) != arrived {
		t.Fatalf("arrival loop: %d arrivals, %d jobs, RunArrivals %d", arrived, len(s.jobs), res.Arrived)
	}
	prev := 0.0
	for _, j := range s.jobs {
		if j.enqueuedAt > cfg.Duration || j.enqueuedAt < prev {
			t.Errorf("job %d arrived at %g (window %g, previous %g)", j.ID, j.enqueuedAt, cfg.Duration, prev)
		}
		prev = j.enqueuedAt
	}
}
