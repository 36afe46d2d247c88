package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each reports correct answers and every metric BENCHMARK.json
// names, with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "privreg-server")
	if out, err := exec.Command("go", "build", "-o", bin, "privreg/cmd/privreg-server").CombinedOutput(); err != nil {
		t.Fatalf("building the server: %v\n%s", err, out)
	}
	for _, w := range workloads {
		tiny := *w
		tiny.warmCycles, tiny.cyclesPerSec, tiny.tracedCycles, tiny.setups = 1, 1, 1, 1
		cfg := &config{w: &tiny, seed: 7, seconds: 1, serverBin: bin, workDir: filepath.Join(dir, "work")}
		for _, traced := range []bool{false, true} {
			run, want := runMeasured, spec.EndToEnd
			if traced {
				run, want = runTraced, spec.PerLayer
			}
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %q", w.name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
