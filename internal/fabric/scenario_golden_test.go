package fabric

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lingerlonger/internal/scenario"
	"lingerlonger/scenarios"
)

// The committed specs under scenarios/ are the Figure 5 and Figure 8
// sweeps that llsweep -sweep NAME runs. These golden tests pin their
// reports: expanding a committed spec and running its points through the
// fabric's local path must reproduce the report recorded under testdata/,
// byte for byte. To re-record one after a deliberate model change:
//
//	go run ./cmd/llsweep -sweep node -quick -out internal/fabric/testdata/node-quick.json

func goldenScenario(t *testing.T, name string, quick bool) {
	t.Helper()
	data, err := scenarios.Load(name)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	id, specs, err := scenario.Expand(spec, quick)
	if err != nil {
		t.Fatal(err)
	}
	results, _, err := RunLocal(BuiltinTasks(), nil, 2, id, specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EncodeReport(id, spec.Seed, quick, results)
	if err != nil {
		t.Fatal(err)
	}
	file := name + "-full.json"
	if quick {
		file = name + "-quick.json"
	}
	want, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenario %s is not byte-identical to testdata/%s:\n--- got ---\n%s", name, file, got)
	}
}

func TestGoldenNodeScenario(t *testing.T) {
	goldenScenario(t, "node", true)
	goldenScenario(t, "node", false)
}

func TestGoldenFig8Scenario(t *testing.T) {
	goldenScenario(t, "fig8", true)
	if testing.Short() {
		t.Skip("full Figure 8 sweep is slow")
	}
	goldenScenario(t, "fig8", false)
}

// TestScenarioTaskRegistered pins the fabric contract: agents resolve the
// "scenario" task from the builtin table, so scenario sweeps can run on a
// distributed fabric without any new wire messages.
func TestScenarioTaskRegistered(t *testing.T) {
	if _, ok := BuiltinTasks().Lookup(scenario.TaskName); !ok {
		t.Fatalf("task %q not in BuiltinTasks", scenario.TaskName)
	}
}
