package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"imc2/internal/gen"
)

// toy shrinks a workload to a few dozen workers and tasks, keeping its
// mechanism, its parts and every code path. Requirements are
// over-provisioned so every winner stays replaceable and ReverseAuction
// has critical payments at this scale.
func toy(w workload) workload {
	shrink := func(spec gen.CampaignSpec, workers int) gen.CampaignSpec {
		spec.Workers = workers
		spec.Copiers = workers / 5
		spec.Tasks = 40
		spec.TasksPerWorker = min(spec.TasksPerWorker, 12)
		spec.MinProvidersPerTask = 4
		spec.RequirementLow, spec.RequirementHigh = 0.5, 1
		return spec
	}
	w.cycle = shrink(w.cycle, 30)
	w.session = shrink(w.session, 40)
	w.rate = 200
	return w
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(ours) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the harness runs %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmokeEveryWorkload runs every workload at toy scale, untraced and
// traced, through the same code path as a full run: the outputs must
// check out and the printed metrics must be exactly BENCHMARK.json's.
func TestSmokeEveryWorkload(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, traced), func(t *testing.T) {
				out := t.TempDir()
				res, err := run(options{workload: toy(w), seed: 3, seconds: 600 * time.Millisecond, traced: traced, out: out})
				if err != nil {
					t.Fatal(err)
				}
				if !res.correct || res.failed != 0 || res.attempted < 1 {
					t.Fatalf("correct %v, failed %d of %d", res.correct, res.failed, res.attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				got := map[string]string{}
				for _, m := range res.metrics {
					got[m.name] = m.unit
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("metrics %v, BENCHMARK.json declares %v", keys(got), keys(want))
				}
				var buf bytes.Buffer
				res.print(&buf)
				lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
				var last struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct{ Value float64 }
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || !last.Correct || len(last.Metrics) != len(want) {
					t.Errorf("last line %q does not parse as a correct result: %v", lines[len(lines)-1], err)
				}
				entries, err := os.ReadDir(out)
				if err != nil {
					t.Fatal(err)
				}
				if traced != (len(entries) == 1 && strings.HasPrefix(entries[0].Name(), "spans-")) {
					t.Errorf("output directory holds %v", entries)
				}
			})
		}
	}
}

// TestBadArguments checks that a bad invocation fails without a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "dense-gb", "--trace", "2"},
		{"--workload", "dense-gb", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := cli(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func keys(m map[string]string) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
