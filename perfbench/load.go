package main

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator is open loop: request i is due at a fixed offset
// from the start of its rung whatever the system does, and its latency
// is timed from that due time. A stall therefore shows up in the latency
// of every request queued behind it, not only in the stalled one.

// sample is what happened to one request.
type sample struct {
	Due       time.Time // when the schedule said to send it
	Release   time.Time // when the generator handed it to a connection
	Sent      time.Time // when a connection started sending it
	Done      time.Time
	Status    int
	Err       error
	Body      []byte
	Abandoned bool // never sent: the rung was stopped because its backlog grew
}

// Latency is the time from due to done.
func (s sample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Late is how late the generator released the request.
func (s sample) Late() time.Duration { return s.Release.Sub(s.Due) }

// OK reports whether the request completed with 200.
func (s sample) OK() bool { return !s.Abandoned && s.Err == nil && s.Status == http.StatusOK }

// openLoop sends requests on a schedule over a fixed number of
// connections.
type openLoop struct {
	Client *http.Client
	Conns  int
	// MaxBacklog, when positive, stops the rung once more than this many
	// released requests are unfinished; the rest are abandoned.
	MaxBacklog int
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// run sends request i (url, body) at start+due[i] and returns one sample
// per request, in request order. It returns once every request has
// completed or been abandoned.
func (o openLoop) run(urls []string, bodies [][]byte, due []time.Duration) []sample {
	n := len(urls)
	samples := make([]sample, n)
	queue := make(chan int, n) // sized to the number of sends: releasing never blocks
	var finished atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < o.Conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &samples[i]
				s.Sent = time.Now()
				s.Status, s.Body, s.Err = post(o.Client, urls[i], bodies[i])
				s.Done = time.Now()
				finished.Add(1)
			}
		}()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		samples[i].Due = start.Add(due[i])
		if w := time.Until(samples[i].Due); w > 0 {
			time.Sleep(w)
		}
		if o.MaxBacklog > 0 && i-int(finished.Load()) > o.MaxBacklog {
			for j := i; j < n; j++ {
				samples[j].Due = start.Add(due[j])
				samples[j].Abandoned = true
			}
			break
		}
		samples[i].Release = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// poissonDue returns n arrival offsets of a Poisson process at rate per
// second.
func poissonDue(rng *rand.Rand, n int, rate float64) []time.Duration {
	due := make([]time.Duration, n)
	t := 0.0
	for i := range due {
		due[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return due
}

// latencies returns each sample's latency in ms; a request that failed
// or was abandoned missed every limit and counts as +Inf.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = math.Inf(1)
		if s.OK() {
			out[i] = ms(s.Latency())
		}
	}
	return out
}
