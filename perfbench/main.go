// Command perfbench is the repository benchmark: it runs the real /v2
// HTTP campaign lifecycle against an in-process platform wired as
// cmd/platformd wires it, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload dense-gb --seed 1 --seconds 26 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// makes a traced run that times each layer from the harness's side of
// its public functions and seams, and writes the spans to
// .bench_build/perfbench/. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Any wrong output
// or failed operation makes the run exit non-zero. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// options is one invocation.
type options struct {
	workload workload
	seed     int64
	seconds  time.Duration
	traced   bool
	// out is where working directories and spans go.
	out string
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: dense-gb, dense-ra, sparse-gb or submit-durable")
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fs.Float64("seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for working files and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d): %v\n", *name, *secs, *trace, err)
		return 2
	}
	opts := options{workload: w, seed: *seed, seconds: time.Duration(*secs * float64(time.Second)), traced: *trace == 1, out: *out}
	res, err := run(opts)
	if res != nil {
		res.print(stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		return 1
	}
	return 0
}

// metric is one reported number with its unit and, for statistics over
// samples, how many samples it summarises.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// result is what a run prints.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	// extra metrics are printed in the summary but are not declared in
	// BENCHMARK.json, so they stay out of the JSON result.
	extra []metric
	// note describes the run's set-up in the printed summary.
	note string
}

func (r *result) add(name string, value float64, unit string, samples int) {
	r.metrics = append(r.metrics, metric{name, value, unit, samples})
}

// print writes one line per metric, then the JSON result as the last line.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", r.note)
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	for _, m := range append(r.metrics, append(r.extra, metric{"fail_frac", failFrac, "ratio", int(r.attempted)})...) {
		fmt.Fprintf(w, "%-28s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]jm, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = jm{m.value, m.unit}
	}
	buf, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		// A NaN or Inf metric: report the run as incorrect rather than
		// printing a malformed line.
		fmt.Fprintf(w, `{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`+"\n", max(r.attempted, 1), r.failed+1)
		return
	}
	fmt.Fprintf(w, "%s\n", buf)
}

// quantile is the q-quantile of xs, interpolating between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// scaled converts durations to floats in the given unit.
func scaled(unit time.Duration, ds ...time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
