package fabric

import (
	"lingerlonger/internal/exp"
	"lingerlonger/internal/scenario"
)

// BuiltinTasks returns a registry holding the repository's standard task:
// the scenario task (internal/scenario), which executes points of
// declarative scenario specs. Agents (cmd/lingerd -agent) and serial
// drivers (cmd/llsweep -workers) must register the same tasks so a spec
// means the same computation in every process. Tasks must be pure
// functions of their spec: all randomness comes from spec.Seed, and
// outputs are canonical JSON whose bytes round-trip unchanged through the
// checkpoint store.
func BuiltinTasks() *exp.Tasks {
	t := exp.NewTasks()
	if err := t.Register(scenario.TaskName, scenario.Task); err != nil {
		panic(err) // unreachable: static name, non-nil func
	}
	return t
}
