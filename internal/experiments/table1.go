package experiments

import (
	"fmt"

	"repro/cluster"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/metrics"
)

// TableIOptions configures the external-interference variability study
// (Table I, Figure 2, Figure 3). The zero value reproduces the paper:
// hourly IOR tests with 512 writers / one per storage target on Jaguar
// (469 samples), the NERSC 80-writer series on Franklin, and two controlled
// XTP configurations (one IOR job vs two simultaneous IOR jobs).
type TableIOptions struct {
	// JaguarSamples (paper: 469), FranklinSamples (paper: ~2 years of
	// hourly tests; we default to 469 as well), XTPSamples per mode.
	JaguarSamples   int
	FranklinSamples int
	XTPSamples      int
	// BytesPerWriter is the per-writer IOR size (the paper does not state
	// it for the hourly tests; 64 MB gives multi-second transfers that see
	// through cache absorption).
	BytesPerWriter float64
	// Seed differentiates the hourly sample environments.
	Seed int64
	// ScaleOSTs optionally scales each machine's target (and writer) count
	// by this divisor for fast runs (0 or 1 = paper scale).
	ScaleOSTs int
	// Parallel bounds the replica worker pool (1 = sequential, <=0 = all
	// cores). The hourly samples are independent environments, so results
	// are bit-identical at every setting.
	Parallel int
}

func (o *TableIOptions) defaults() {
	if o.JaguarSamples <= 0 {
		o.JaguarSamples = 469
	}
	if o.FranklinSamples <= 0 {
		o.FranklinSamples = 469
	}
	if o.XTPSamples <= 0 {
		o.XTPSamples = 100
	}
	if o.BytesPerWriter <= 0 {
		o.BytesPerWriter = 64 * pfs.MB
	}
	if o.ScaleOSTs <= 0 {
		o.ScaleOSTs = 1
	}
}

// MachineSeries is one row of Table I plus its raw samples.
type MachineSeries struct {
	Machine string
	// BWSamples are per-test aggregate bandwidths in MB/s.
	BWSamples []float64
	// Imbalances are per-test imbalance factors (slowest/fastest writer).
	Imbalances []float64
	Summary    stats.Summary
}

// TableIResult carries the table and the per-machine sample sets that
// Figures 2 and 3 reuse.
type TableIResult struct {
	Table  metrics.Table
	Series []MachineSeries
}

// TableIScenario expresses the study declaratively: one "machine" axis
// whose values carry With bundles switching machine preset, target/writer
// counts, noise and workload kind together — Table I's rows are literally
// four configurations of one spec. Seed label "table1" and the row-name
// point labels reproduce the pre-scenario replica streams exactly.
func TableIScenario(opt TableIOptions) scenario.Scenario {
	opt.defaults()
	osts := 512 / opt.ScaleOSTs
	franklinWriters := 80 / opt.ScaleOSTs
	if franklinWriters < 2 {
		franklinWriters = 2
	}
	xtpWriters, xtpBlades := xtpScale(opt.ScaleOSTs)
	num := func(n int) scenario.Value { return scenario.NumValue(float64(n)) }
	machine := func(preset, label string, samples int, with map[string]scenario.Value) scenario.Value {
		v := scenario.StrValue(preset)
		v.Label = label
		v.Samples = samples
		v.With = with
		return v
	}
	xtpWith := func(withInterference bool) map[string]scenario.Value {
		return map[string]scenario.Value{
			"kind":              scenario.StrValue(scenario.KindPairedIOR),
			"osts":              num(xtpBlades),
			"writers":           num(xtpWriters),
			"noise":             scenario.BoolValue(false),
			"with_interference": scenario.BoolValue(withInterference),
		}
	}
	return scenario.Scenario{
		Name:        "table1",
		Description: "Table I: external-interference variability on Jaguar, Franklin and XTP",
		Samples:     opt.JaguarSamples,
		Workload:    scenario.Workload{Kind: scenario.KindIOR, Bytes: opt.BytesPerWriter},
		Axes: []scenario.Axis{{
			Name: "machine",
			Values: []scenario.Value{
				machine("jaguar", "Jaguar", opt.JaguarSamples, map[string]scenario.Value{
					"osts": num(osts), "writers": num(osts),
				}),
				machine("franklin", "Franklin", opt.FranklinSamples, map[string]scenario.Value{
					"writers": num(franklinWriters),
				}),
				machine("xtp", "XTP(with Int.)", opt.XTPSamples, xtpWith(true)),
				machine("xtp", "XTP(without Int.)", opt.XTPSamples, xtpWith(false)),
			},
		}},
	}
}

// TableI runs the external-interference variability study.
func TableI(opt TableIOptions) (*TableIResult, error) {
	opt.defaults()
	run, err := scenario.Run(TableIScenario(opt), scenario.RunOptions{Seed: opt.Seed, Parallel: opt.Parallel})
	if err != nil {
		return nil, err
	}
	return tableIDemux(run)
}

// tableIDemux reduces the scenario run to the paper's table, one machine
// row per grid point in axis order.
func tableIDemux(run *scenario.Result) (*TableIResult, error) {
	res := &TableIResult{
		Table: metrics.Table{
			Title: "Table I: IO Performance Variability Due to External Interference",
			Header: []string{"Machine", "Number of Samples", "Avg. IO Bandwidth (MB/sec)",
				"Std. Deviation", "Covariance"},
		},
	}
	for _, pt := range run.Points {
		ms := MachineSeries{Machine: pt.Label}
		for _, r := range pt.Samples {
			ms.BWSamples = append(ms.BWSamples, r.AggregateBW/pfs.MB)
			ms.Imbalances = append(ms.Imbalances, stats.ImbalanceFactor(r.WriterTimes))
		}
		ms.Summary = stats.Summarize(ms.BWSamples)
		res.Series = append(res.Series, ms)
		res.Table.AddRow(
			pt.Label,
			fmt.Sprintf("%d", ms.Summary.N),
			fmt.Sprintf("%.3e", ms.Summary.Mean),
			fmt.Sprintf("%.3e", ms.Summary.StdDev),
			fmt.Sprintf("%.0f%%", ms.Summary.CoVPercent()),
		)
	}
	return res, nil
}

// xtpScale shrinks both the writer count and blade count by the scale
// divisor, preserving the writers-per-blade ratio that drives contention.
func xtpScale(scale int) (writers, blades int) {
	writers = 512 / scale
	blades = 40 / scale
	if blades < 2 {
		blades = 2
	}
	if writers < 2*blades {
		writers = 2 * blades
	}
	return writers, blades
}

// Fig2 renders the Table I sample sets as the paper's bandwidth histograms.
func Fig2(t *TableIResult, bins int) []metrics.HistogramFigure {
	if bins <= 0 {
		bins = 12
	}
	out := make([]metrics.HistogramFigure, 0, len(t.Series))
	panel := 'a'
	for _, ms := range t.Series {
		out = append(out, metrics.HistogramFigure{
			Title: fmt.Sprintf("Figure 2(%c): %s", panel, ms.Machine),
			XUnit: "IO bandwidth (MB/s)",
			Bins:  bins,
			Data:  append([]float64(nil), ms.BWSamples...),
		})
		panel++
	}
	return out
}

// Fig3Options configures the imbalanced-writers illustration.
type Fig3Options struct {
	// OSTs and writers (one per target); paper: 512, 128 MB per process.
	OSTs           int
	BytesPerWriter float64
	// GapSeconds is the virtual time between Test 1 and Test 2 (paper: the
	// second test ran "only 3 minutes later").
	GapSeconds float64
	// AverageOver is how many additional tests feed the overall average
	// imbalance factor the paper reports.
	AverageOver int
	Seed        int64
	// Parallel bounds the worker pool for the AverageOver replicas (the two
	// headline tests share one environment and stay sequential).
	Parallel int
}

func (o *Fig3Options) defaults() {
	if o.OSTs <= 0 {
		o.OSTs = 512
	}
	if o.BytesPerWriter <= 0 {
		o.BytesPerWriter = 128 * pfs.MB
	}
	if o.GapSeconds <= 0 {
		o.GapSeconds = 180
	}
	if o.AverageOver <= 0 {
		o.AverageOver = 40
	}
}

// Fig3Result carries the two per-writer time profiles and the imbalance
// statistics.
type Fig3Result struct {
	Test1Times []float64
	Test2Times []float64
	Imbalance1 float64
	Imbalance2 float64
	// AvgImbalance is the overall average imbalance factor across
	// AverageOver independent tests (the paper reports ~2 overall, with
	// individual tests up to 3.44).
	AvgImbalance float64
	MaxImbalance float64
}

// Fig3Scenario is the average-imbalance series as a scenario: the
// hourly-test shape at this option set, seed label "fig3", single grid
// point "imbalance" — the same replica stream the bespoke loop drew.
func Fig3Scenario(opt Fig3Options) scenario.Scenario {
	opt.defaults()
	return scenario.Scenario{
		Name:       "fig3",
		PointLabel: "imbalance",
		Machine:    "jaguar",
		NumOSTs:    opt.OSTs,
		Samples:    opt.AverageOver,
		Workload: scenario.Workload{
			Kind:    scenario.KindIOR,
			Writers: opt.OSTs,
			Bytes:   opt.BytesPerWriter,
		},
	}
}

// Fig3 runs two IOR tests GapSeconds apart on one busy Jaguar environment,
// demonstrating the transient nature of external interference, plus a
// sample series for the average imbalance factor.
func Fig3(opt Fig3Options) (*Fig3Result, error) {
	res, err := fig3Headline(opt)
	if err != nil {
		return nil, err
	}
	avg, err := scenario.Run(Fig3Scenario(opt), scenario.RunOptions{Seed: opt.Seed, Parallel: opt.Parallel})
	if err != nil {
		return nil, err
	}
	res.AvgImbalance, res.MaxImbalance = fig3Imbalance(avg)
	return res, nil
}

// fig3Headline runs the two headline tests GapSeconds apart on one
// environment, leaving the average-imbalance fields zero.
func fig3Headline(opt Fig3Options) (*Fig3Result, error) {
	opt.defaults()
	c, err := cluster.Preset("jaguar", cluster.Config{
		Seed:            opt.Seed,
		NumOSTs:         opt.OSTs,
		ProductionNoise: true,
	})
	if err != nil {
		return nil, err
	}
	defer c.Shutdown()
	fs := c.FileSystem()
	cfg := ior.Config{
		Writers:        opt.OSTs,
		OSTs:           firstN(opt.OSTs),
		BytesPerWriter: opt.BytesPerWriter,
		Mode:           ior.FilePerProcess,
		Tag:            "t1",
	}
	r1, err := ior.Execute(fs, cfg)
	if err != nil {
		return nil, err
	}
	// Advance the clock: the machine's load drifts for GapSeconds.
	c.RunFor(secondsToDuration(opt.GapSeconds))
	cfg.Tag = "t2"
	r2, err := ior.Execute(fs, cfg)
	if err != nil {
		return nil, err
	}
	return &Fig3Result{
		Test1Times: r1.WriterTimes,
		Test2Times: r2.WriterTimes,
		Imbalance1: r1.ImbalanceFactor,
		Imbalance2: r2.ImbalanceFactor,
	}, nil
}

// fig3Imbalance reduces the average-imbalance series to its mean and
// maximum imbalance factor.
func fig3Imbalance(run *scenario.Result) (avg, maxI float64) {
	var acc stats.Accumulator
	for _, smp := range run.Points[0].Samples {
		f := stats.ImbalanceFactor(smp.WriterTimes)
		acc.Add(f)
		if f > maxI {
			maxI = f
		}
	}
	return acc.Summary().Mean, maxI
}
