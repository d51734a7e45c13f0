package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/fabric"
	"lingerlonger/internal/scenario"
	"lingerlonger/internal/stats"
	"lingerlonger/internal/trace"
)

// sweepSeeds is how many derived seeds the sweep workload runs the
// Figure 5 node grid over in one pass.
const sweepSeeds = 4

// fabricSetup reads a committed scenario spec and starts the agent pool:
// the set-up both fabric workloads time.
func fabricSetup(root, specFile, taskSpan string) (*scenario.Spec, *agentPool, error) {
	data, err := os.ReadFile(filepath.Join(root, "scenarios", specFile))
	if err != nil {
		return nil, nil, err
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		return nil, nil, err
	}
	pool, err := startAgents(fabricAgents, taskSpan)
	if err != nil {
		return nil, nil, err
	}
	return spec, pool, nil
}

func fabricSetupTimer(root, specFile, taskSpan string) *setupTimer {
	return &setupTimer{setup: func() (func(), error) {
		_, pool, err := fabricSetup(root, specFile, taskSpan)
		if err != nil {
			return nil, err
		}
		return pool.Close, nil
	}}
}

// runTournament runs scenarios/tournament.json (every policy on every
// workload, full scale) through the fabric, then ranks, encodes and
// validates the report.
func runTournament(cfg runConfig) (*result, error) {
	spec, pool, err := fabricSetup(cfg.Root, "tournament.json", "scenario.task")
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	spec.Seed = exp.DeriveSeed(cfg.Seed, 0)

	var traced []fabricPass
	var cells []exp.PointSpec
	st := fabricSetupTimer(cfg.Root, "tournament.json", "scenario.task")
	br, err := runBatch(cfg, st, func(tr *Tracer, root int, brk func()) (*passOut, error) {
		id := tr.Begin("scenario.expand", root, -1)
		sweep, specs, err := scenario.Expand(spec, false)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		cells = specs
		// The cells go to the fabric one workload (the outer axis) at a
		// time, a break between (see passFunc). A cell's result depends
		// on its spec's seed and parameters, not on its index, so each
		// part re-indexes its cells from 0 as fabric.Run requires.
		var results [][]byte
		var fp fabricPass
		for lo, part := 0, len(spec.Sweep.Policies); lo < len(specs); lo += part {
			if lo > 0 {
				brk()
			}
			chunk := append([]exp.PointSpec(nil), specs[lo:min(lo+part, len(specs))]...)
			for i := range chunk {
				chunk[i].Index = i
			}
			res, pfp, err := pool.run(tr, root, sweep, chunk)
			if err != nil {
				return nil, err
			}
			results = append(results, res...)
			fp.add(pfp)
		}
		id = tr.Begin("scenario.rank", root, -1)
		rep, err := scenario.Rank(spec, false, results)
		var data []byte
		if err == nil {
			data, err = scenario.EncodeTournament(rep)
		}
		tr.End(id)
		if err != nil {
			return nil, err
		}
		id = tr.Begin("bench.check", root, -1)
		_, verr := scenario.ValidateTournamentReport(data)
		tr.End(id)
		out := &passOut{Output: data, Attempted: len(specs) + 1}
		if verr != nil {
			out.Failed = 1
			logf("tournament: report fails validation: %v", verr)
		}
		if tr != nil {
			traced = append(traced, fp)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: br.Attempted, Failed: br.Failed, Tracer: br.Tracer}
	if !cfg.Trace {
		res.Metrics = br.endToEnd(st.seconds())
		return res, nil
	}
	m := br.layerMetrics()
	for k, v := range fabricMetrics(traced) {
		m[k] = v
	}
	gen, err := cellCorpora(cells)
	if err != nil {
		return nil, err
	}
	var genTotal time.Duration
	days := 0
	shapes := map[corpusShape]bool{}
	for _, g := range gen {
		genTotal += g.took
		days += g.shape.Machines * g.shape.Days
		shapes[g.shape] = true
	}
	var point []float64
	for _, fp := range traced {
		point = append(point, (fp.Busy - genTotal).Seconds())
	}
	m["trace.generate_s"] = genTotal.Seconds()
	m["trace.generate_calls"] = float64(len(gen))
	m["trace.machine_days"] = float64(days)
	m["cluster.point_s"] = median(point)
	m["corpus.reuse_share"] = float64(len(gen)-len(shapes)) / float64(len(gen))
	res.Metrics = m
	return res, nil
}

// corpusShape identifies a trace corpus: two cluster runs with the same
// shape compute the same corpus.
type corpusShape struct {
	Seed           int64
	Machines, Days int
}

// generate synthesizes the corpus of shape, as a cluster run does, and
// returns how long it took.
func (c corpusShape) generate() (time.Duration, error) {
	tcfg := trace.DefaultConfig()
	tcfg.Days = c.Days
	t0 := time.Now()
	_, err := trace.GenerateCorpus(tcfg, c.Machines, stats.NewRNG(c.Seed))
	return time.Since(t0), err
}

type cellCorpus struct {
	shape corpusShape
	took  time.Duration
}

// cellCorpora regenerates, outside any pass, the corpus each cluster cell
// synthesizes, with the cell's own inputs, and times it: the trace
// synthesis share of a cell. Two workers run them, as two agents run the
// cells.
func cellCorpora(cells []exp.PointSpec) ([]cellCorpus, error) {
	return exp.Map(fabricAgents, len(cells), func(i int) (cellCorpus, error) {
		var p scenario.PointParams
		if err := json.Unmarshal(cells[i].Params, &p); err != nil {
			return cellCorpus{}, err
		}
		shape := corpusShape{Seed: exp.DeriveSeed(cells[i].Seed, 0), Machines: p.Trace.Machines, Days: p.Trace.Days}
		took, err := shape.generate()
		return cellCorpus{shape: shape, took: took}, err
	})
}

// sweepSpecs expands the node scenario once per derived seed and joins
// the points into one sweep, re-indexed. Each point keeps the seed its
// own expansion derived, so its result does not depend on the joining.
func sweepSpecs(spec *scenario.Spec, seed int64) ([]exp.PointSpec, error) {
	var all []exp.PointSpec
	for k := 0; k < sweepSeeds; k++ {
		spec.Seed = exp.DeriveSeed(seed, k)
		_, specs, err := scenario.Expand(spec, false)
		if err != nil {
			return nil, err
		}
		for _, s := range specs {
			s.Index = len(all)
			all = append(all, s)
		}
	}
	return all, nil
}

// runSweep sends the Figure 5 node grid, over several derived seeds,
// through the fabric and checks every point against fabric.RunLocal on
// the same specs.
func runSweep(cfg runConfig) (*result, error) {
	spec, pool, err := fabricSetup(cfg.Root, "node.json", "node.task")
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	const sweep = "node"

	// Untimed reference: the single-process execution of the same specs.
	refSpecs, err := sweepSpecs(spec, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ref, _, err := fabric.RunLocal(fabric.BuiltinTasks(), nil, fabricAgents, sweep, refSpecs, nil)
	if err != nil {
		return nil, err
	}
	simSeconds := 0.0
	for _, s := range refSpecs {
		var p scenario.PointParams
		if err := json.Unmarshal(s.Params, &p); err != nil {
			return nil, err
		}
		simSeconds += p.Node.Duration
	}

	var traced []fabricPass
	st := fabricSetupTimer(cfg.Root, "node.json", "node.task")
	br, err := runBatch(cfg, st, func(tr *Tracer, root int, _ func()) (*passOut, error) {
		id := tr.Begin("scenario.expand", root, -1)
		specs, err := sweepSpecs(spec, cfg.Seed)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		results, fp, err := pool.run(tr, root, sweep, specs)
		if err != nil {
			return nil, err
		}
		id = tr.Begin("fabric.encode", root, -1)
		data, err := fabric.EncodeReport(sweep, cfg.Seed, false, results)
		tr.End(id)
		if err != nil {
			return nil, err
		}
		id = tr.Begin("bench.check", root, -1)
		out := &passOut{Output: data, Attempted: len(specs)}
		for i := range results {
			if i >= len(ref) || !bytes.Equal(results[i], ref[i]) {
				out.Failed++
			}
		}
		tr.End(id)
		if out.Failed > 0 {
			logf("sweep: %d of %d points differ from fabric.RunLocal", out.Failed, len(specs))
		}
		if tr != nil {
			traced = append(traced, fp)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: br.Attempted, Failed: br.Failed, Tracer: br.Tracer}
	if !cfg.Trace {
		res.Metrics = br.endToEnd(st.seconds())
		return res, nil
	}
	m := br.layerMetrics()
	for k, v := range fabricMetrics(traced) {
		m[k] = v
	}
	var rate []float64
	for _, fp := range traced {
		rate = append(rate, simSeconds/fp.Busy.Seconds())
	}
	m["node.sim_s_per_s"] = median(rate)
	res.Metrics = m
	return res, nil
}
