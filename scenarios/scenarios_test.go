package scenarios

import (
	"reflect"
	"testing"

	"lingerlonger/internal/exp"
	"lingerlonger/internal/scenario"
)

// Every committed spec must decode, keep the name of its file, and expand
// twice to the same valid points seeded by exp.DeriveSeed(spec seed, i).
func TestSpecsExpand(t *testing.T) {
	names := Names()
	if want := []string{"fig8", "node", "tournament"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, name := range names {
		data, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, quick := range []bool{true, false} {
			var runs [2][]exp.PointSpec
			for r := range runs {
				spec, err := scenario.Decode(data)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				id, specs, err := scenario.Expand(spec, quick)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if id != name || len(specs) == 0 {
					t.Fatalf("%s: expands to sweep %q with %d points", name, id, len(specs))
				}
				for i, ps := range specs {
					if err := ps.Validate(); err != nil {
						t.Errorf("%s point %d invalid: %v", name, i, err)
					}
					if ps.Index != i || ps.Seed != exp.DeriveSeed(spec.Seed, i) {
						t.Errorf("%s point %d: index %d seed %d", name, i, ps.Index, ps.Seed)
					}
				}
				runs[r] = specs
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("%s (quick=%t) expands differently on a second decode", name, quick)
			}
		}
	}
}

func TestLoadUnknown(t *testing.T) {
	for _, name := range []string{"nope", "", "../scenarios/node", "node.json"} {
		if _, err := Load(name); err == nil {
			t.Errorf("Load(%q) accepted", name)
		}
	}
}

// The full Figure 5 node sweep is the paper's grid: three context-switch
// costs by nineteen utilizations.
func TestNodeFullSweepPoints(t *testing.T) {
	data, err := Load("node")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := scenario.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	_, specs, err := scenario.Expand(spec, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3*19 {
		t.Errorf("full node sweep has %d points, want %d", len(specs), 3*19)
	}
}
