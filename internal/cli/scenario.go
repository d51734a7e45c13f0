package cli

import (
	"flag"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/obs"
	"lingerlonger/internal/scenario"
)

// LoadScenario is the spec prologue of every command that runs scenario
// specs (llsweep, nodesim, lingersim): it decodes data, lets check refuse
// the spec (nil accepts any), applies seed when -seed was given
// explicitly on the command line, and expands the spec into its sweep
// points, counting them under scenario.points_expanded. Without an
// explicit -seed the spec's own seed stands, so the points stay a pure
// function of the spec's content. A spec that does not decode or expand
// is a usage error.
func LoadScenario(data []byte, seed int64, quick bool, check func(*scenario.Spec) error, rec *obs.Recorder) (*scenario.Spec, string, []exp.PointSpec, error) {
	spec, err := scenario.Decode(data)
	if err != nil {
		return nil, "", nil, Usagef("%v", err)
	}
	if check != nil {
		if err := check(spec); err != nil {
			return nil, "", nil, err
		}
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			spec.Seed = seed
		}
	})
	id, specs, err := scenario.Expand(spec, quick)
	if err != nil {
		return nil, "", nil, Usagef("%v", err)
	}
	rec.Counter(obs.ScenarioPointsExpanded).Add(int64(len(specs)))
	return spec, id, specs, nil
}
