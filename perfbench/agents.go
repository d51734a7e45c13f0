package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/fabric"
	"lingerlonger/internal/runtime"
)

// The tournament and sweep workloads send their points through a fabric
// of in-process agents on loopback, sized for a 2-core machine: two
// agents, one call in flight each.
const (
	fabricAgents   = 2
	fabricInFlight = 1
)

// agentPool is a set of loopback agents whose executor is wrapped by the
// benchmark: every task execution is timed and, when a tracer is set,
// recorded as a span under the current fabric.run span.
type agentPool struct {
	servers []*runtime.AgentServer
	addrs   []string
	span    string // span name of one task execution

	mu     sync.Mutex
	tracer *Tracer
	parent atomic.Int64
	tasks  []time.Duration // execution time of each task of the current run
}

// startAgents serves n loopback agents executing the built-in task
// registry and waits until each answers a ping.
func startAgents(n int, span string) (*agentPool, error) {
	p := &agentPool{span: span}
	tasks := fabric.BuiltinTasks()
	owner, err := runtime.NewScriptedOwner([]runtime.OwnerPhase{{Duration: 1e9, Util: 0.02, FreeMB: 40}})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			p.Close()
			return nil, err
		}
		a := runtime.NewAgent(fmt.Sprintf("agent%d", i), owner, 64)
		a.SetWorkExecutor(func(spec exp.PointSpec) ([]byte, error) {
			return p.execute(tasks, spec)
		})
		srv := runtime.NewAgentServer(a, l)
		p.servers = append(p.servers, srv)
		p.addrs = append(p.addrs, srv.Addr().String())
	}
	link := fabricLink()
	for _, addr := range p.addrs {
		c, err := runtime.DialAgentConfig(addr, link.ClientConfig("ready", nil, nil))
		if err == nil {
			err = c.Ping()
			c.Close()
		}
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("agent %s not ready: %w", addr, err)
		}
	}
	return p, nil
}

func (p *agentPool) execute(tasks *exp.Tasks, spec exp.PointSpec) ([]byte, error) {
	p.mu.Lock()
	tr := p.tracer
	p.mu.Unlock()
	id := tr.Begin(p.span, int(p.parent.Load()), int64(spec.Index))
	start := time.Now()
	out, err := tasks.Run(spec)
	took := time.Since(start)
	tr.End(id)
	p.mu.Lock()
	p.tasks = append(p.tasks, took)
	p.mu.Unlock()
	return out, err
}

// fabricLink is the production link configuration with the in-flight
// limit of the benchmark's fabric.
func fabricLink() fabric.LinkConfig {
	link := fabric.DefaultLinkConfig()
	link.MaxInFlight = fabricInFlight
	link.Seed = 1
	return link
}

// run sends specs through the fabric. Task spans are recorded under a
// fabric.run span that is a child of parent.
func (p *agentPool) run(tr *Tracer, parent int, sweep string, specs []exp.PointSpec) ([][]byte, fabricPass, error) {
	id := tr.Begin("fabric.run", parent, -1)
	p.mu.Lock()
	p.tracer = tr
	p.tasks = p.tasks[:0]
	p.mu.Unlock()
	p.parent.Store(int64(id))
	start := time.Now()
	results, stats, err := fabric.Run(fabric.Config{Agents: p.addrs, Link: fabricLink()}, sweep, specs)
	fp := fabricPass{Run: time.Since(start), Points: len(specs), Stats: stats}
	tr.End(id)
	p.mu.Lock()
	for _, d := range p.tasks {
		fp.Busy += d
	}
	p.tracer = nil
	p.mu.Unlock()
	return results, fp, err
}

// Close stops every agent server.
func (p *agentPool) Close() {
	for _, s := range p.servers {
		s.Close()
	}
}

// fabricPass summarizes one fabric run for the per-layer metrics.
type fabricPass struct {
	Run    time.Duration
	Busy   time.Duration // sum of task execution times
	Points int
	Stats  fabric.Stats
}

// add sums another fabric run of the same pass into fp.
func (fp *fabricPass) add(o fabricPass) {
	fp.Run += o.Run
	fp.Busy += o.Busy
	fp.Points += o.Points
	fp.Stats.Dispatched += o.Stats.Dispatched
	fp.Stats.Requeued += o.Stats.Requeued
	fp.Stats.Transport.Retries += o.Stats.Transport.Retries
}

// fabricMetrics reports the fabric layer's per-layer metrics as medians
// over the traced passes.
func fabricMetrics(passes []fabricPass) map[string]float64 {
	var busy, over, disp, req, retr []float64
	for _, fp := range passes {
		slots := float64(fabricAgents * fabricInFlight)
		busy = append(busy, fp.Busy.Seconds()/(slots*fp.Run.Seconds()))
		over = append(over, ms(time.Duration(slots*float64(fp.Run))-fp.Busy)/float64(fp.Points))
		disp = append(disp, float64(fp.Stats.Dispatched))
		req = append(req, float64(fp.Stats.Requeued))
		retr = append(retr, float64(fp.Stats.Transport.Retries))
	}
	return map[string]float64{
		"fabric.agent_busy_share":      median(busy),
		"fabric.overhead_ms_per_point": median(over),
		"fabric.dispatched":            median(disp),
		"fabric.requeued":              median(req),
		"fabric.retries":               median(retr),
	}
}
