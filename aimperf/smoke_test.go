package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload at a tiny size, untraced and traced,
// and checks that each run is correct and reports exactly the metrics
// BENCHMARK.json lists, with their units.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny", "--dir", dir}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				var got, exp []string
				for name, m := range res.Metrics {
					got = append(got, name+" "+m.Unit)
				}
				for _, m := range want {
					exp = append(exp, m.Name+" "+m.Unit)
				}
				sort.Strings(got)
				sort.Strings(exp)
				if strings.Join(got, ",") != strings.Join(exp, ",") {
					t.Fatalf("metrics\n got %v\nwant %v", got, exp)
				}
				if trace == "1" {
					traces, _ := filepath.Glob(filepath.Join(dir, "traces", w.Name+"-seed3.jsonl"))
					if len(traces) != 1 {
						t.Fatalf("no span file written under %s", dir)
					}
				}
			})
		}
	}
}

// TestUsage checks that a bad invocation fails without a result line.
func TestUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
