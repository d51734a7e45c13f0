// Command llsweep runs a scenario sweep — serially, on a local worker
// pool, or distributed across a cluster of lingerd agent processes — and
// emits a deterministic JSON report.
//
//	llsweep -sweep node -quick -workers 1
//	    Serial reference run of a committed spec: -sweep NAME runs
//	    scenarios/NAME.json, embedded in the binary. It is the byte-exact
//	    baseline every other execution mode must reproduce.
//
//	llsweep -scenario scenarios/fig8.json -workers 4
//	    Scenario mode: expand a declarative scenario spec file (internal/
//	    scenario) instead of a committed one. The spec's name becomes the
//	    sweep ID and its seed the report seed unless -seed is given
//	    explicitly.
//
//	llsweep -sweep node -quick -agents 127.0.0.1:7101,127.0.0.1:7102
//	    Distributed run: partition the same points across agent processes
//	    (lingerd -agent) with at-most-once dispatch, per-call deadlines,
//	    bounded retry, suspect/dead health tracking, and automatic
//	    re-execution of points lost to a dead agent.
//
//	llsweep ... -checkpoint DIR
//	    Persist completed points and resume an interrupted run; serial and
//	    fabric runs share the same snapshot format, so a run can switch
//	    modes between attempts. A checkpoint belongs to one (spec digest,
//	    seed, quick): resuming it with any other is refused.
//
//	llsweep ... -fault drop=0.05,seed=42
//	    Apply the deterministic fault injector to every fabric call (the
//	    lingerd -fault spec syntax); the report bytes must not change.
//
// The report on stdout is a pure function of (spec, seed, quick): agent
// count, worker count, faults, retries, and resumption never change a
// byte. Execution details go to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"lingerlonger/internal/checkpoint"
	"lingerlonger/internal/cli"
	"lingerlonger/internal/exp"
	"lingerlonger/internal/fabric"
	"lingerlonger/internal/runtime"
	"lingerlonger/scenarios"
)

func main() {
	cli.Run("llsweep", realMain)
}

func realMain() (err error) {
	var o cli.Obs
	o.RegisterFlags()
	link := cli.LinkFlags(flag.CommandLine)
	var (
		sweepName = flag.String("sweep", "node", fmt.Sprintf("committed spec to run, one of %v", scenarios.Names()))
		scenPath  = flag.String("scenario", "", "run a scenario spec `file` instead of a committed one")
		seed      = flag.Int64("seed", 1, "master seed; per-point seeds derive from it")
		quick     = flag.Bool("quick", false, "smaller sweep for smoke runs")
		workers   = flag.Int("workers", 1, "local mode: worker pool size (ignored with -agents)")
		agents    = flag.String("agents", "", "fabric mode: comma-separated lingerd agent addresses")
		ckptDir   = flag.String("checkpoint", "", "checkpoint `dir`: persist completed points and resume from it")
		faultSpec = flag.String("fault", "", "fault injection spec for fabric calls, e.g. drop=0.05,seed=42")
		outPath   = flag.String("out", "", "write the report to `file` instead of stdout")
	)
	cli.RegisterVersionFlag()
	flag.Parse()
	if cli.VersionRequested() {
		return cli.PrintVersion("llsweep")
	}
	if flag.NArg() > 0 {
		return cli.Usagef("unexpected argument %q", flag.Arg(0))
	}
	if err := o.Start(); err != nil {
		return err
	}
	defer o.Finish(&err)
	rec := o.Recorder()

	var data []byte
	if *scenPath != "" {
		if data, err = os.ReadFile(*scenPath); err != nil {
			return err
		}
	} else if data, err = scenarios.Load(*sweepName); err != nil {
		return cli.Usagef("%v", err)
	}
	spec, id, specs, err := cli.LoadScenario(data, *seed, *quick, nil, rec)
	if err != nil {
		return err
	}

	var store exp.Store
	if *ckptDir != "" {
		// The spec digest makes the checkpoint refuse a resume under an
		// edited spec that kept its name.
		digest, err := spec.Digest()
		if err != nil {
			return err
		}
		run, err := checkpoint.OpenOrCreate(*ckptDir, checkpoint.Meta{
			Schema: checkpoint.SchemaVersion,
			Seed:   spec.Seed,
			Config: fmt.Sprintf("quick=%t spec=%s", *quick, digest),
			Sweep:  id,
		})
		if err != nil {
			return err
		}
		if rec != nil {
			run.SetRecorder(rec)
		}
		store = run
	}

	var (
		results [][]byte
		stats   fabric.Stats
	)
	if *agents == "" {
		if *faultSpec != "" {
			return cli.Usagef("-fault requires -agents (the injector sits on the fabric transport)")
		}
		results, stats, err = fabric.RunLocal(fabric.BuiltinTasks(), store, *workers, id, specs, rec)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llsweep: %s: %d points local (workers=%d, computed=%d, restored=%d)\n",
			id, len(specs), *workers, stats.Completed, stats.Restored)
	} else {
		var addrs []string
		for _, a := range strings.Split(*agents, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		var injector runtime.FaultInjector
		if *faultSpec != "" {
			fcfg, err := runtime.ParseFaultSpec(*faultSpec)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			inj, err := runtime.NewSeededInjector(fcfg)
			if err != nil {
				return cli.Usagef("%v", err)
			}
			injector = inj
		}
		cfg := fabric.Config{
			Agents:   addrs,
			Link:     *link,
			Injector: injector,
			Store:    store,
			Rec:      rec,
		}
		results, stats, err = fabric.Run(cfg, id, specs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "llsweep: %s: %d points across %d agents (completed=%d, restored=%d, requeued=%d, suspected=%d, dead=%d, resurrected=%d, retries=%d)\n",
			id, len(specs), len(addrs), stats.Completed, stats.Restored, stats.Requeued,
			stats.Suspected, stats.Dead, stats.Resurrected, stats.Transport.Retries)
	}

	report, err := fabric.EncodeReport(id, spec.Seed, *quick, results)
	if err != nil {
		return err
	}
	if *outPath != "" {
		return os.WriteFile(*outPath, report, 0o644)
	}
	_, err = os.Stdout.Write(report)
	return err
}
