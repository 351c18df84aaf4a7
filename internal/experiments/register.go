package experiments

import (
	"fmt"
	"strings"

	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/workloads"
	"repro/metrics"
)

// init publishes every driver through the scenario registry, so the
// -scenario flag and repro's preset runs reach the same specs (and the same
// artifact renderers) the drivers use. Renderers rebuild the canonical
// tables and figures from the generic Result; they are the only place a
// paper artifact is formatted.
func init() {
	scenario.Register(scenario.Definition{
		Name:        "fig1",
		Description: "Figure 1: internal-interference IOR grid (aggregate + per-writer bandwidth)",
		Spec:        presetSpec(Fig1Preset, Fig1Scenario),
		Render:      renderFig1,
	})
	scenario.Register(scenario.Definition{
		Name:        "table1",
		Description: "Table I + Figure 2: external-interference variability on three machines",
		Spec:        presetSpec(TableIPreset, TableIScenario),
		Render:      renderTableI,
	})
	scenario.Register(scenario.Definition{
		Name:        "fig3",
		Description: "Figure 3: imbalanced concurrent writers (two tests 3 minutes apart + average imbalance)",
		Spec:        presetSpec(Fig3Preset, Fig3Scenario),
		Render:      renderFig3,
	})
	evalDef := func(name, artifact, title string, gen workloads.Generator) {
		scenario.Register(scenario.Definition{
			Name:        name,
			Description: title,
			Spec: presetSpec(EvalPreset, func(opt EvalOptions) scenario.Scenario {
				return EvalScenario(gen, opt)
			}),
			Render: func(res *scenario.Result, opt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
				return renderEval(res, artifact, title)
			},
		})
	}
	// The three Pixie3D panels share one artifact, which repro's preset
	// runs concatenate in panel order.
	evalDef("fig5-small", "fig5.txt", "Figure 5(a): Pixie3D Small Data (2 MB/process)",
		workloads.Pixie3DGen(workloads.Pixie3DSmall))
	evalDef("fig5-large", "fig5.txt", "Figure 5(b): Pixie3D Large Data (128 MB/process)",
		workloads.Pixie3DGen(workloads.Pixie3DLarge))
	evalDef("fig5-xl", "fig5.txt", "Figure 5(c): Pixie3D Extra Large Data (1024 MB/process)",
		workloads.Pixie3DGen(workloads.Pixie3DXL))
	evalDef("fig6", "fig6.txt", "Figure 6: XGC1 IO Performance (38 MB/process)", workloads.XGC1Gen())
	scenario.Register(scenario.Definition{
		Name:        "jobmix-frontier",
		Description: "Saturation frontier: heterogeneous job mix, static vs adaptive, 1→N concurrent jobs",
		Spec:        presetSpec(JobMixPreset, JobMixScenario),
		Render:      renderJobMix,
	})
	scenario.Register(scenario.Definition{
		Name:        "failure-sweep",
		Description: "Failure masking: scripted OST crash/rebuild under adaptive IO vs its work-shifting ablation",
		Spec:        presetSpec(FailureSweepPreset, FailureSweepScenario),
		Render:      renderFailureSweep,
	})
	scenario.Register(scenario.Definition{
		Name:        "metadata",
		Description: "Metadata open-storm study (future-work extension)",
		Spec:        presetSpec(MetadataPreset, MetadataScenario),
		Render: func(res *scenario.Result, opt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
			md, err := metadataDemux(res)
			if err != nil {
				return nil, nil, err
			}
			return []scenario.Artifact{{Name: "metadata.txt", Text: md.Table.Render()}}, nil, nil
		},
	})
	scenario.Register(scenario.Definition{
		Name:        "machine-probe",
		Description: "Machine characterisation probes of one preset (-set machine=NAME)",
		Spec: func(mode string) (scenario.Scenario, error) {
			if err := checkMode(mode); err != nil {
				return scenario.Scenario{}, err
			}
			return MachineProbeScenario(), nil
		},
		Render: renderMachineProbe,
	})
}

// presetSpec adapts a driver's preset and spec builder to a Definition's
// Spec.
func presetSpec[O any](preset func(mode string) (O, error), build func(O) scenario.Scenario) func(string) (scenario.Scenario, error) {
	return func(mode string) (scenario.Scenario, error) {
		opt, err := preset(mode)
		if err != nil {
			return scenario.Scenario{}, err
		}
		return build(opt), nil
	}
}

// fig1OptionsFromSpec recovers the driver options a Fig1 spec was built
// from, so auxiliary runs (the shape-check grid) and the shape checks
// themselves see the scenario's actual dimensions.
func fig1OptionsFromSpec(s scenario.Scenario) Fig1Options {
	opt := Fig1Options{OSTs: s.NumOSTs, Samples: s.Samples, NoNoise: s.NoNoise}
	for _, ax := range s.Axes {
		switch ax.Name {
		case "ratio":
			for _, v := range ax.Values {
				opt.Ratios = append(opt.Ratios, int(v.Float()))
			}
		case "size":
			for _, v := range ax.Values {
				opt.SizesMB = append(opt.SizesMB, v.Float())
			}
		}
	}
	return opt
}

func renderFig1(res *scenario.Result, ropt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := fig1Demux(res)
	if err != nil {
		return nil, nil, err
	}
	text := r.Aggregate.Render() + "\n" + r.PerWriter.Render()
	// The grid above is measured under production noise, as the paper's
	// was. The qualitative shape claims concern *internal* interference, so
	// they are validated against a noise-free run of the same spec.
	clean := res.Scenario
	clean.NoNoise = true
	clean.Samples = 2
	crun, err := scenario.Run(clean, scenario.RunOptions{Seed: ropt.Seed, Parallel: ropt.Parallel})
	if err != nil {
		return nil, nil, err
	}
	cres, err := fig1Demux(crun)
	if err != nil {
		return nil, nil, err
	}
	opt := fig1OptionsFromSpec(clean)
	var summary []string
	if bad := Fig1ShapeChecks(cres, opt); len(bad) > 0 {
		text += "\nshape-check (noise-free grid) violations:\n  " + strings.Join(bad, "\n  ") + "\n"
		summary = append(summary, fmt.Sprintf("Fig 1: %d shape violations (see fig1.txt)", len(bad)))
	} else {
		text += "\nshape-check: all Figure 1 qualitative claims hold on the noise-free grid\n"
		summary = append(summary, fmt.Sprintf("Fig 1: internal-interference shapes hold (%d grid points)",
			len(opt.Ratios)*len(opt.SizesMB)))
	}
	return []scenario.Artifact{{Name: "fig1.txt", Text: text}}, summary, nil
}

func renderTableI(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	t1, err := tableIDemux(res)
	if err != nil {
		return nil, nil, err
	}
	var b strings.Builder
	b.WriteString(t1.Table.Render())
	b.WriteString("\nImbalance factors (slowest/fastest writer):\n")
	var summary []string
	for _, s := range t1.Series {
		sum := metrics.Summarize(s.Imbalances)
		fmt.Fprintf(&b, "  %-20s avg %.2f  max %.2f\n", s.Machine, sum.Mean, sum.Max)
		summary = append(summary, fmt.Sprintf("Table I %-18s CoV %.0f%%", s.Machine, s.Summary.CoVPercent()))
	}
	var h strings.Builder
	for _, hist := range Fig2(t1, 12) {
		h.WriteString(hist.Render())
		h.WriteByte('\n')
	}
	return []scenario.Artifact{
		{Name: "table1.txt", Text: b.String()},
		{Name: "fig2.txt", Text: h.String()},
	}, summary, nil
}

func renderJobMix(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := jobMixDemux(res)
	if err != nil {
		return nil, nil, err
	}
	tbl := JobMixTable(r)
	text := r.Figure.Render() + "\n" + tbl.Render()
	return []scenario.Artifact{{Name: "jobmix.txt", Text: text}},
		[]string{JobMixLine(r)}, nil
}

func renderFailureSweep(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	r, err := failureSweepDemux(res)
	if err != nil {
		return nil, nil, err
	}
	tbl := FailureSweepTable(r)
	text := r.Figure.Render() + "\n" + tbl.Render()
	return []scenario.Artifact{{Name: "failure-sweep.txt", Text: text}},
		[]string{FailureSweepLine(r)}, nil
}

// renderFig3 runs the two headline tests at the run's seed on the spec's
// machine and reports them beside the average-imbalance series.
func renderFig3(res *scenario.Result, ropt scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	w := res.Scenario.Workload
	bytes := w.Bytes
	if bytes == 0 {
		bytes = w.SizeMB * pfs.MB
	}
	r, err := fig3Headline(Fig3Options{OSTs: res.Scenario.NumOSTs, BytesPerWriter: bytes, Seed: ropt.Seed})
	if err != nil {
		return nil, nil, err
	}
	r.AvgImbalance, r.MaxImbalance = fig3Imbalance(res)
	text := fmt.Sprintf("Test 1 imbalance factor: %.2f\nTest 2 imbalance factor: %.2f\nOverall average imbalance: %.2f (max %.2f)\n",
		r.Imbalance1, r.Imbalance2, r.AvgImbalance, r.MaxImbalance)
	return []scenario.Artifact{{Name: "fig3.txt", Text: text}},
		[]string{fmt.Sprintf("Fig 3: imbalance avg %.2f, max %.2f (paper: avg ≈2, up to 3.44)", r.AvgImbalance, r.MaxImbalance)}, nil
}

func renderEval(res *scenario.Result, artifact, title string) ([]scenario.Artifact, []string, error) {
	er, err := evalDemux(res, title)
	if err != nil {
		return nil, nil, err
	}
	var b strings.Builder
	b.WriteString(er.Figure.Render())
	b.WriteByte('\n')
	tbl := SpeedupSummary(er)
	b.WriteString(tbl.Render())
	b.WriteByte('\n')
	return []scenario.Artifact{{Name: artifact, Text: b.String()}},
		[]string{SpeedupLine(er)}, nil
}

// RenderFig7 reduces evaluation runs (the fig5-* and fig6 scenarios) to
// Figure 7's write-time standard deviations, one panel per run in order.
func RenderFig7(runs []*scenario.Result) (scenario.Artifact, error) {
	ers := make([]*EvalResult, len(runs))
	for i, run := range runs {
		er, err := evalDemux(run, run.Scenario.Name)
		if err != nil {
			return scenario.Artifact{}, err
		}
		ers[i] = er
	}
	var b strings.Builder
	for _, fig := range Fig7(ers) {
		b.WriteString(fig.Render())
		b.WriteByte('\n')
	}
	return scenario.Artifact{Name: "fig7.txt", Text: b.String()}, nil
}
