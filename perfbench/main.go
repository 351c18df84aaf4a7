// Command perfbench is the repository's benchmark: it runs one named
// workload — a scenario spec in perfbench/specs — through the public
// scenario API as a closed loop with one client, checks every replica's
// outputs, and prints its metrics. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it reports per-layer metrics from
// layer probes, a CPU profile grouped by module, and runtime counters.
//
//	bash perfbench/run.sh --workload fig5xl-adaptive --seed 42 --seconds 25 --trace 0
//	bash perfbench/run.sh --selfcheck
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// See README.md for every metric, its unit and the layer it belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// defaultSeed is the fixed seed the baseline in README.md was taken at.
const defaultSeed = 42

// The benchmark runs from the root of a checkout: it reads the workload
// specs from specDir and the traced run writes its spans and CPU profile
// to traceDir.
const (
	specDir  = "perfbench/specs"
	traceDir = ".bench_build/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", defaultSeed, "master seed of every replica")
	seconds := fs.Float64("seconds", 10, "host seconds to measure for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	selfcheck := fs.Bool("selfcheck", false, "run the determinism and smoke checks on every workload and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *selfcheck {
		if err := selfCheck(*seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: selfcheck:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	w, err := loadWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 0 {
		res, err = endToEnd(w, *seed, budget)
	} else {
		res, err = traced(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome; print renders it as the contract's last
// line, preceded by one human-readable line per metric.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	notes     []string // extra human-readable lines (digests, counts)
	problems  []string
}

func newResult(workload string) *result {
	return &result{workload: workload, correct: true, metrics: map[string]metric{}}
}

// set records a metric. A value that is not finite cannot be encoded and
// means a measurement went wrong, so it marks the run incorrect.
func (r *result) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.correct = false
		r.problems = append(r.problems, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print(w io.Writer) error {
	for _, n := range r.notes {
		fmt.Fprintf(w, "%s %s\n", r.workload, n)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s = %.6g %s\n", r.workload, n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
