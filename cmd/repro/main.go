// Command repro is the experiment CLI: it regenerates every table and
// figure of the paper in one run, or runs one registered or custom
// scenario.
//
// Two presets:
//
//	repro -mode quick   — scaled-down grids (ratios preserved), minutes
//	repro -mode full    — the paper's configuration (512 OSTs, writer
//	                      counts to 16384, 40/469 samples), hours
//
// A preset run loops over the registered paper scenarios in artifact order
// (fig1, table1, fig3, fig5-small, fig5-large, fig5-xl, fig6), renders each
// through its registry renderer, and reduces the four evaluation runs to
// Figure 7. Artifacts land in -out (default ./results): one .txt per
// table/figure plus summary.txt with the headline comparisons. -only
// restricts the run to some artifacts (fig1,table1,fig2,fig3,fig5,fig6,fig7)
// and rejects any other name before writing anything.
//
// Individual experiments (or any custom spec) run through -scenario and
// print to stdout unless -out is given:
//
//	repro -scenario fig1 -set osts=32 -set samples=4
//	repro -scenario machine-probe -set machine=franklin
//	repro -scenario examples/custom.json -set procs=32
//
// -trace captures a per-target activity timeline of one replica, and
// -cpuprofile/-memprofile profile the run.
//
// Campaigns run on a replica worker pool (-parallel, default all cores) with
// results bit-identical to a sequential run; -seq-baseline additionally
// reruns each campaign on one worker and prints the measured speedup.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/profiling"
	"repro/internal/scenario"
)

// paperRuns lists the registered scenarios behind the paper's artifacts in
// artifact order, each with the -only keys (artifact stems) that select
// it. The evaluation runs also feed Figure 7.
var paperRuns = []struct {
	name string
	keys []string
}{
	{"fig1", []string{"fig1"}},
	{"table1", []string{"table1", "fig2"}},
	{"fig3", []string{"fig3"}},
	{"fig5-small", []string{"fig5", "fig7"}},
	{"fig5-large", []string{"fig5", "fig7"}},
	{"fig5-xl", []string{"fig5", "fig7"}},
	{"fig6", []string{"fig6", "fig7"}},
}

// onlyKeys names every artifact stem in paperRuns, for -only's help and
// errors.
const onlyKeys = "fig1,table1,fig2,fig3,fig5,fig6,fig7"

// multiFlag collects a repeatable string flag (-set key=value ...).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// config is the parsed command line.
type config struct {
	scenario      string
	sets          multiFlag
	mode          string
	out           string
	seed          int64
	parallel      int
	trace         bool
	traceInterval float64
	tracePoint    string
	traceSample   int
	cpuProfile    string
	memProfile    string
	only          string
	seqBase       bool
}

// parseArgs parses the command line. -out defaults to results/ for preset
// runs and to stdout for -scenario runs.
func parseArgs(args []string) config {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	var c config
	fs.StringVar(&c.scenario, "scenario", "",
		"run a scenario: a registered name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	fs.Var(&c.sets, "set", "override a spec field or axis, key=value (repeatable)")
	fs.StringVar(&c.mode, "mode", "quick", "preset mode: quick | full")
	fs.StringVar(&c.out, "out", "", "output directory (default results for -mode runs, stdout for -scenario runs)")
	fs.Int64Var(&c.seed, "seed", 42, "master seed")
	fs.IntVar(&c.parallel, "parallel", 0, "replica workers (0 = all cores, 1 = sequential)")
	fs.BoolVar(&c.trace, "trace", false, "capture an activity trace of one replica")
	fs.Float64Var(&c.traceInterval, "trace-interval", 1, "trace sampling interval in simulated seconds")
	fs.StringVar(&c.tracePoint, "trace-point", "", "grid-point label to trace (default: first point)")
	fs.IntVar(&c.traceSample, "trace-sample", 0, "sample index to trace")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")
	fs.StringVar(&c.only, "only", "", "comma list to restrict a -mode run: "+onlyKeys)
	fs.BoolVar(&c.seqBase, "seq-baseline", false, "rerun each campaign sequentially and report the parallel speedup")
	_ = fs.Parse(args) // ExitOnError: a bad command line exits here
	outGiven := false
	fs.Visit(func(f *flag.Flag) { outGiven = outGiven || f.Name == "out" })
	if !outGiven && c.scenario == "" {
		c.out = "results"
	}
	return c
}

func main() {
	c := parseArgs(os.Args[1:])

	stopProf, err := profiling.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	if c.scenario != "" {
		if err := runScenario(c); err != nil {
			fatal(err)
		}
		return
	}

	if err := writeArtifacts(c.mode, c.out, c.seed, c.parallel, c.only, c.seqBase); err != nil {
		fatal(err)
	}
	fmt.Printf("artifacts written to %s/\n", c.out)
}

// runScenario resolves -scenario, applies the -set overrides, runs the
// spec and emits the artifacts: a registered definition renders its
// canonical tables and figures, a file spec the generic per-point summary.
// Artifacts go to -out as files (plus summary lines on stdout), or all to
// stdout when -out is empty.
func runScenario(c config) error {
	s, def, err := scenario.Load(c.scenario, c.mode)
	if err != nil {
		return err
	}
	for _, assignment := range c.sets {
		if err := scenario.ApplySet(&s, assignment); err != nil {
			return err
		}
	}
	ropt := scenario.RunOptions{Seed: c.seed, Parallel: c.parallel}
	if c.trace {
		ropt.Trace = &scenario.TraceOptions{
			IntervalSeconds: c.traceInterval,
			Point:           c.tracePoint,
			Sample:          c.traceSample,
		}
	}
	res, err := scenario.Run(s, ropt)
	if err != nil {
		return err
	}

	stem := strings.ReplaceAll(s.Name, "/", "-") // "eval/gtc" → "eval-gtc"
	var artifacts []scenario.Artifact
	var summary []string
	if def != nil && def.Render != nil {
		artifacts, summary, err = def.Render(res, ropt)
		if err != nil {
			return err
		}
	} else {
		tbl := res.Table()
		artifacts = []scenario.Artifact{{Name: stem + ".txt", Text: tbl.Render()}}
		summary = res.Summary()
	}
	if res.Trace != nil {
		artifacts = append(artifacts, scenario.Artifact{Name: stem + ".trace.txt", Text: res.Trace.Render()})
	}

	if c.out == "" {
		for _, a := range artifacts {
			fmt.Printf("== %s ==\n%s\n", a.Name, a.Text)
		}
	} else {
		if err := os.MkdirAll(c.out, 0o755); err != nil {
			return err
		}
		for _, a := range artifacts {
			path := filepath.Join(c.out, a.Name)
			if err := os.WriteFile(path, []byte(a.Text), 0o644); err != nil {
				return err
			}
			fmt.Printf("repro: wrote %s\n", path)
		}
	}
	for _, line := range summary {
		fmt.Println(line)
	}
	return nil
}

// selectKeys parses -only into the set of selected artifact stems (empty =
// all), rejecting names no paper run renders.
func selectKeys(only string) (map[string]bool, error) {
	valid := map[string]bool{}
	for _, pr := range paperRuns {
		for _, k := range pr.keys {
			valid[k] = true
		}
	}
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		if k = strings.TrimSpace(k); k == "" {
			continue
		}
		if !valid[k] {
			return nil, fmt.Errorf("unknown -only key %q (valid: %s)", k, onlyKeys)
		}
		want[k] = true
	}
	return want, nil
}

// writeArtifacts runs the paper scenarios selected by only (a comma list of
// artifact stems; empty = all) at the given preset mode and seed, writes
// each registry-rendered artifact (same-named ones concatenated in run
// order) plus summary.txt to out, and prints the summary.
func writeArtifacts(mode, out string, seed int64, parallel int, only string, seqBase bool) error {
	want, err := selectKeys(only)
	if err != nil {
		return err
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	texts := map[string]string{}
	emit := func(a scenario.Artifact) error {
		if !sel(strings.TrimSuffix(a.Name, ".txt")) {
			return nil
		}
		texts[a.Name] += a.Text
		return os.WriteFile(filepath.Join(out, a.Name), []byte(texts[a.Name]), 0o644)
	}

	var summary strings.Builder
	fmt.Fprintf(&summary, "Reproduction run: mode=%s seed=%d at %s\n\n",
		mode, seed, profiling.Timestamp())

	ropt := scenario.RunOptions{Seed: seed, Parallel: parallel}
	var evalRuns []*scenario.Result
	for _, pr := range paperRuns {
		if !slices.ContainsFunc(pr.keys, sel) {
			continue
		}
		def, _ := scenario.Lookup(pr.name)
		s, err := def.Spec(mode)
		if err != nil {
			return err
		}
		res, err := runTimed(&summary, def.Description, parallel, seqBase,
			func(par int) (*scenario.Result, error) {
				o := ropt
				o.Parallel = par
				return scenario.Run(s, o)
			})
		if err != nil {
			return err
		}
		artifacts, lines, err := def.Render(res, ropt)
		if err != nil {
			return err
		}
		for _, a := range artifacts {
			if err := emit(a); err != nil {
				return err
			}
		}
		for _, line := range lines {
			fmt.Fprintln(&summary, line)
		}
		if slices.Contains(pr.keys, "fig7") {
			evalRuns = append(evalRuns, res)
		}
	}
	if sel("fig7") {
		step("Figure 7 (write-time standard deviations)")
		a, err := experiments.RenderFig7(evalRuns)
		if err != nil {
			return err
		}
		if err := emit(a); err != nil {
			return err
		}
	}

	fmt.Println("\n" + summary.String())
	return os.WriteFile(filepath.Join(out, "summary.txt"), []byte(summary.String()), 0o644)
}

func step(name string) { fmt.Println("==>", name) }

// workersFor resolves the effective worker count the campaign runner uses
// for a -parallel value.
func workersFor(parallel int) int {
	if parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return parallel
}

// runTimed executes one campaign at the configured parallelism and prints
// its wall-clock time; with -seq-baseline it reruns the campaign on one
// worker and reports the observed speedup (the results are bit-identical by
// the runner's determinism contract, so only the clock differs).
func runTimed(summary *strings.Builder, name string, parallel int, seqBaseline bool,
	run func(parallel int) (*scenario.Result, error)) (*scenario.Result, error) {
	step(name)
	sw := profiling.StartStopwatch()
	res, err := run(parallel)
	if err != nil {
		return res, err
	}
	par := sw.Elapsed()
	w := workersFor(parallel)
	if seqBaseline && w > 1 {
		sw = profiling.StartStopwatch()
		if _, err := run(1); err != nil {
			return res, err
		}
		seq := sw.Elapsed()
		fmt.Printf("    %.2fs on %d workers vs %.2fs sequential — %.2fx speedup\n",
			par.Seconds(), w, seq.Seconds(), seq.Seconds()/par.Seconds())
		fmt.Fprintf(summary, "timing %s: %.2fs on %d workers, %.2fs sequential (%.2fx)\n",
			name, par.Seconds(), w, seq.Seconds(), seq.Seconds()/par.Seconds())
	} else {
		fmt.Printf("    %.2fs wall-clock on %d worker(s)\n", par.Seconds(), w)
		fmt.Fprintf(summary, "timing %s: %.2fs on %d worker(s)\n", name, par.Seconds(), w)
	}
	return res, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
