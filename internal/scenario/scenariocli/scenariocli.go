// Package scenariocli is the -scenario flag wiring shared by repro (the
// experiment CLI) and pfsinspect (the machine probe): one place registers
// the common flags (-scenario, -set, -mode, -out, -seed, -parallel,
// -trace, -cpuprofile, -memprofile), loads a registered or file-based
// spec, applies overrides, runs it and emits the artifacts through the
// registry's renderers.
package scenariocli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/profiling"
	"repro/internal/scenario"
)

// multiFlag collects a repeatable string flag (-set key=value ...).
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// Flags holds the shared flag values after parsing.
type Flags struct {
	Scenario      string
	Sets          multiFlag
	Mode          string
	Out           string
	Seed          int64
	Parallel      int
	Trace         bool
	TraceInterval float64
	TracePoint    string
	TraceSample   int
	CPUProfile    string
	MemProfile    string
}

// Register installs the shared flags on a flag set (usually
// flag.CommandLine) and returns the value holder to read after Parse.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Scenario, "scenario", "",
		"run a scenario: a registered name ("+strings.Join(scenario.Names(), ", ")+") or a JSON spec file")
	fs.Var(&f.Sets, "set", "override a spec field or axis, key=value (repeatable)")
	fs.StringVar(&f.Mode, "mode", "quick", "preset mode for registered scenarios: quick | full")
	fs.StringVar(&f.Out, "out", "", "output directory (empty = stdout)")
	fs.Int64Var(&f.Seed, "seed", 42, "master seed")
	fs.IntVar(&f.Parallel, "parallel", 0, "replica workers (0 = all cores, 1 = sequential)")
	fs.BoolVar(&f.Trace, "trace", false, "capture an activity trace of one replica")
	fs.Float64Var(&f.TraceInterval, "trace-interval", 1, "trace sampling interval in simulated seconds")
	fs.StringVar(&f.TracePoint, "trace-point", "", "grid-point label to trace (default: first point)")
	fs.IntVar(&f.TraceSample, "trace-sample", 0, "sample index to trace")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
	return f
}

// ScenarioRequested reports whether -scenario was given.
func (f *Flags) ScenarioRequested() bool { return f.Scenario != "" }

// StartProfiling starts the -cpuprofile/-memprofile capture; call the
// returned stop function on exit.
func (f *Flags) StartProfiling() (func() error, error) {
	return profiling.Start(f.CPUProfile, f.MemProfile)
}

// RunOptions maps the flags onto scenario run options.
func (f *Flags) RunOptions() scenario.RunOptions {
	opt := scenario.RunOptions{Seed: f.Seed, Parallel: f.Parallel}
	if f.Trace {
		opt.Trace = &scenario.TraceOptions{
			IntervalSeconds: f.TraceInterval,
			Point:           f.TracePoint,
			Sample:          f.TraceSample,
		}
	}
	return opt
}

// RunScenario resolves -scenario, applies the -set overrides, runs the
// spec and emits the artifacts: a registered definition renders its
// canonical tables and figures, a file spec the generic per-point summary.
// Artifacts go to -out as files (plus summary lines on stdout), or all to
// stdout when -out is empty.
func (f *Flags) RunScenario(tool string) error {
	s, def, err := scenario.Load(f.Scenario, f.Mode)
	if err != nil {
		return err
	}
	for _, assignment := range f.Sets {
		if err := scenario.ApplySet(&s, assignment); err != nil {
			return err
		}
	}
	ropt := f.RunOptions()
	res, err := scenario.Run(s, ropt)
	if err != nil {
		return err
	}

	var artifacts []scenario.Artifact
	var summary []string
	if def != nil && def.Render != nil {
		artifacts, summary, err = def.Render(res, ropt)
		if err != nil {
			return err
		}
	} else {
		tbl := res.Table()
		artifacts = []scenario.Artifact{{Name: artifactName(s.Name) + ".txt", Text: tbl.Render()}}
		summary = res.Summary()
	}
	if res.Trace != nil {
		artifacts = append(artifacts, scenario.Artifact{
			Name: artifactName(s.Name) + ".trace.txt",
			Text: res.Trace.Render(),
		})
	}

	if f.Out == "" {
		for _, a := range artifacts {
			fmt.Printf("== %s ==\n%s\n", a.Name, a.Text)
		}
	} else {
		if err := os.MkdirAll(f.Out, 0o755); err != nil {
			return err
		}
		for _, a := range artifacts {
			path := filepath.Join(f.Out, a.Name)
			if err := os.WriteFile(path, []byte(a.Text), 0o644); err != nil {
				return err
			}
			fmt.Printf("%s: wrote %s\n", tool, path)
		}
	}
	for _, line := range summary {
		fmt.Println(line)
	}
	return nil
}

// artifactName flattens a scenario name ("eval/gtc") into a file stem.
func artifactName(name string) string {
	return strings.ReplaceAll(name, "/", "-")
}
