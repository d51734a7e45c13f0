package cluster

import (
	"fmt"
	"math"

	"lingerlonger/internal/obs"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// ArrivalsConfig parameterizes the open-system extension: instead of a
// batch submitted at t=0 (the paper's setup), foreign jobs arrive by a
// Poisson process and the metric of interest is response time versus
// offered load. The paper leaves this end-to-end evaluation as future
// work; it is included here as a natural extension on the same simulator.
type ArrivalsConfig struct {
	Cluster Config // NumJobs is ignored; arrivals drive the population

	// Rate is the arrival rate in jobs per second.
	Rate float64
	// Duration is the arrival window in seconds; the simulation then
	// drains until every arrived job completes (or Cluster.MaxTime).
	Duration float64
}

// ArrivalsResult summarizes an open-system run.
type ArrivalsResult struct {
	Arrived    int
	Completed  int
	Incomplete int

	// MeanResponse is the mean time from arrival to completion.
	MeanResponse float64
	// P95Response is the 95th-percentile response time.
	P95Response float64
	// MeanQueued is the mean time jobs spent waiting for a node.
	MeanQueued float64
	// OfferedLoad is rate * job CPU / cluster size — the demand per node.
	OfferedLoad float64
	LocalDelay  float64
	Migrations  int
}

// RunArrivals simulates an open system: jobs of Cluster.JobCPU seconds
// arrive by a Poisson process with the given rate for Duration seconds,
// then the cluster drains. The Poisson process has exactly one pending
// arrival at any time, so the window loop carries it as one variable.
func RunArrivals(cfg ArrivalsConfig, corpus []*trace.Trace) (*ArrivalsResult, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("cluster: arrival rate must be positive, got %g", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("cluster: arrival duration must be positive, got %g", cfg.Duration)
	}
	ccfg := cfg.Cluster
	ccfg.NumJobs = 0
	s, err := newSimulation(ccfg, corpus)
	if err != nil {
		return nil, err
	}
	arrived := s.runArrivals(cfg.Rate, cfg.Duration)

	ccfg.Rec.Histogram(obs.SimRunSeconds).Observe(s.now)
	res := &ArrivalsResult{
		Arrived:     arrived,
		OfferedLoad: cfg.Rate * ccfg.JobCPU / float64(ccfg.Nodes),
		LocalDelay:  s.localDelay(),
		Migrations:  s.migrations,
	}
	var responses, queued []float64
	for _, j := range s.jobs {
		if j.completedAt < 0 {
			res.Incomplete++
			continue
		}
		res.Completed++
		responses = append(responses, j.completionTime())
		queued = append(queued, j.TimeIn(Queued))
	}
	res.MeanResponse = stats.Mean(responses)
	res.P95Response = stats.Quantile(responses, 0.95)
	res.MeanQueued = stats.Mean(queued)
	return res, nil
}

// runArrivals is the arrival loop: it steps the cluster window by window,
// enqueuing every Poisson arrival (rate per second, until duration) that
// falls at or before the current boundary, and stops once the process has
// ended and every job has completed, or at MaxTime. It returns the number
// of arrivals.
func (s *simulation) runArrivals(rate, duration float64) int {
	// Each arrival enqueues one job and draws its successor; a successor
	// past the arrival window ends the process (next = +Inf).
	cfg := s.cfg
	arrivalRNG := stats.NewRNG(cfg.Seed ^ 0x5ca1ab1e)
	draw := func(from float64) float64 {
		if at := from + arrivalRNG.ExpFloat64()/rate; at <= duration {
			return at
		}
		return math.Inf(1)
	}
	firedC := cfg.Rec.Counter(obs.SimEventsFired)
	arrived := 0
	next := draw(0)

	for s.now < cfg.MaxTime {
		// Fire the arrivals up to the current boundary (so a job is never
		// placed before its arrival instant), then advance the cluster
		// across the window.
		for next <= s.now {
			arrived++
			firedC.Inc()
			j := newJob(s.nextJobID, cfg.JobCPU, cfg.JobMB, next)
			s.nextJobID++
			s.jobs = append(s.jobs, j)
			s.queue = append(s.queue, j)
			next = draw(next)
		}
		s.stepOnce()
		if math.IsInf(next, 1) && s.completed >= len(s.jobs) {
			break
		}
	}
	return arrived
}
