package fabric

import (
	"encoding/json"
	"testing"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/scenario"
)

func TestBuiltinTasksRegistry(t *testing.T) {
	got := BuiltinTasks().Names()
	if len(got) != 1 || got[0] != scenario.TaskName {
		t.Fatalf("names = %v, want [%s]", got, scenario.TaskName)
	}
}

// point is a scenario point spec carrying params, as Expand would emit it.
func point(seed int64, params string) exp.PointSpec {
	return exp.PointSpec{Task: scenario.TaskName, Sweep: "unit", Index: 0, Seed: seed, Params: []byte(params)}
}

// runTwice runs spec through the builtin registry twice and requires the
// same bytes both times: a task must be a pure function of its spec.
func runTwice(t *testing.T, spec exp.PointSpec) []byte {
	t.Helper()
	reg := BuiltinTasks()
	b1, err := reg.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := reg.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Errorf("task not deterministic:\n%s\n%s", b1, b2)
	}
	return b1
}

// A Figure 5 cell resolved through the registry: deterministic and
// echoing its cell.
func TestNodeTaskDeterministic(t *testing.T) {
	out := runTwice(t, point(11, `{"kind":"node","node":{"cs":0.0003,"util":0.3,"dur":50}}`))
	var pt scenario.NodePoint
	if err := json.Unmarshal(out, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.ContextSwitch != 300e-6 || pt.Utilization != 0.3 {
		t.Errorf("point echoes wrong params: %+v", pt)
	}
	if pt.LDR <= 0 {
		t.Errorf("LDR = %g, want positive", pt.LDR)
	}
}

func TestNodeTaskRejectsBadParams(t *testing.T) {
	reg := BuiltinTasks()
	for name, params := range map[string]string{
		"malformed":    `{"kind":"node","node":`,
		"non-positive": `{"kind":"node","node":{"cs":1e-4,"util":0.3,"dur":0}}`,
	} {
		if _, err := reg.Run(point(1, params)); err == nil {
			t.Errorf("%s params accepted", name)
		}
	}
}

func TestClusterTaskRejectsBadParams(t *testing.T) {
	reg := BuiltinTasks()
	for name, params := range map[string]string{
		"malformed":      `{"kind":"cluster","policy":`,
		"unknown policy": `{"kind":"cluster","policy":"XX","workload":"w1","quick":true}`,
		"bad workload":   `{"kind":"cluster","policy":"LL","workload":"w9","quick":true}`,
	} {
		if _, err := reg.Run(point(1, params)); err == nil {
			t.Errorf("%s params accepted", name)
		}
	}
}

// One real quick Figure 8 cell through the registry: deterministic and
// carrying the Figure 7/8 fields.
func TestClusterTaskQuickPoint(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation point is slow")
	}
	s, err := scenario.Decode([]byte(`{"scenarioVersion":1,"name":"unit","kind":"cluster","policy":"LL","workload":"w2","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	_, specs, err := scenario.Expand(s, true)
	if err != nil {
		t.Fatal(err)
	}
	var pt scenario.ClusterPoint
	if err := json.Unmarshal(runTwice(t, specs[0]), &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Policy != "LL" || pt.Workload != 2.0 || pt.AvgCompletion <= 0 {
		t.Errorf("cluster point = %+v", pt)
	}
}
