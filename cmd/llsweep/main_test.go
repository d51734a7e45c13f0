package main

import (
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"lingerlonger/internal/checkpoint"
)

// llsweep runs realMain with args on a fresh flag set, as the binary
// would.
func llsweep(t *testing.T, args ...string) error {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = oldArgs, oldFlags }()
	os.Args = append([]string{"llsweep"}, args...)
	flag.CommandLine = flag.NewFlagSet("llsweep", flag.ContinueOnError)
	return realMain()
}

func writeSpec(t *testing.T, dir, file, body string) string {
	t.Helper()
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A checkpoint belongs to one spec: resuming it under a different spec
// that kept the name and seed must be refused, never answered with the
// other spec's points, while resuming under the same spec restores every
// point.
func TestCheckpointRefusesEditedSpec(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "ckpt")
	orig := writeSpec(t, dir, "orig.json", `{"scenarioVersion": 1, "name": "node", "kind": "node",
		"node": {"cs": [0.0001], "utils": [0.1, 0.2], "dur": 50}}`)
	edited := writeSpec(t, dir, "edited.json", `{"scenarioVersion": 1, "name": "node", "kind": "node",
		"node": {"cs": [0.0001], "utils": [0.5], "dur": 50}}`)

	first := filepath.Join(dir, "first.json")
	if err := llsweep(t, "-scenario", orig, "-checkpoint", ckpt, "-out", first); err != nil {
		t.Fatalf("first run: %v", err)
	}

	err := llsweep(t, "-scenario", edited, "-checkpoint", ckpt, "-out", filepath.Join(dir, "edited-out.json"))
	var mismatch *checkpoint.MismatchError
	if !errors.As(err, &mismatch) {
		t.Fatalf("resume under an edited spec: err = %v, want *checkpoint.MismatchError", err)
	}

	resumed, metrics := filepath.Join(dir, "resumed.json"), filepath.Join(dir, "metrics.json")
	if err := llsweep(t, "-scenario", orig, "-checkpoint", ckpt, "-out", resumed, "-metrics", metrics); err != nil {
		t.Fatalf("resume under the same spec: %v", err)
	}
	a, _ := os.ReadFile(first)
	b, _ := os.ReadFile(resumed)
	if len(a) == 0 || string(a) != string(b) {
		t.Errorf("resumed report differs from the first run:\n%s\n%s", a, b)
	}
	raw, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if got := m.Counters["checkpoint.restores"]; got != 2 {
		t.Errorf("resume restored %d points, want all 2", got)
	}
}
