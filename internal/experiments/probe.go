package experiments

import (
	"fmt"
	"strings"

	"repro/internal/machines"
	"repro/internal/pfs"
	"repro/internal/scenario"
	"repro/metrics"
)

// MachineProbeScenario characterises one machine preset the way a storage
// engineer probes a real system, for reviewing (or re-deriving) the
// calibration constants in internal/machines. Its one "probe" axis lists
// the four probes' points; each value binds its own workload kind, writer
// count, size (MB), target count and noise:
//
//	single/<size>MB        one writer on one clean target, 1…512 MB
//	contention/writers=<n> n 128 MB writers sharing one clean target
//	storm                  256 simultaneous creates over 16 targets
//	noise                  16 noisy IOR runs of 16 × 64 MB on 16 targets
//
// The machine is the spec's (-set machine=franklin switches it).
func MachineProbeScenario() scenario.Scenario {
	probe := func(label, kind string, writers, sizeMB, osts float64, noise bool) scenario.Value {
		v := scenario.StrValue(label)
		v.With = map[string]scenario.Value{
			"kind":    scenario.StrValue(kind),
			"writers": scenario.NumValue(writers),
			"size":    scenario.NumValue(sizeMB),
			"osts":    scenario.NumValue(osts),
			"noise":   scenario.BoolValue(noise),
		}
		return v
	}
	var probes []scenario.Value
	for _, mb := range []float64{1, 8, 32, 128, 512} {
		probes = append(probes, probe(fmt.Sprintf("single/%gMB", mb), scenario.KindIOR, 1, mb, 1, false))
	}
	for _, n := range []float64{1, 2, 4, 8, 16, 32} {
		probes = append(probes, probe(fmt.Sprintf("contention/writers=%g", n), scenario.KindIOR, n, 128, 1, false))
	}
	probes = append(probes, probe("storm", scenario.KindOpenStorm, 256, 0, 16, false))
	noisy := probe("noise", scenario.KindIOR, 16, 64, 16, true)
	noisy.Samples = 16
	probes = append(probes, noisy)
	return scenario.Scenario{
		Name:        "machine-probe",
		Description: "Machine characterisation: single stream, per-target contention, metadata storm, noise footprint",
		Machine:     "jaguar",
		Samples:     1,
		Workload:    scenario.Workload{Kind: scenario.KindIOR, PinTargets: true},
		Axes:        []scenario.Axis{{Name: "probe", LabelFmt: "%s", Values: probes}},
	}
}

// renderMachineProbe prints the machine's calibration header and one
// section per probe.
func renderMachineProbe(res *scenario.Result, _ scenario.RunOptions) ([]scenario.Artifact, []string, error) {
	m, ok := machines.ByName(res.Scenario.Machine, 0)
	if !ok {
		return nil, nil, fmt.Errorf("machine-probe: unknown machine %q", res.Scenario.Machine)
	}
	single := metrics.Table{Header: []string{"size", "write() BW"}}
	contention := metrics.Table{Header: []string{"writers/target", "aggregate/target", "per-writer"}}
	var storm scenario.Sample
	var stormWriters int
	var bws, imbs []float64
	for _, pt := range res.Points {
		s := pt.Samples[0]
		switch group, _, _ := strings.Cut(pt.Label, "/"); group {
		case "single":
			single.AddRow(fmt.Sprintf("%gMB", pt.Params.Float("size", 0)), metrics.FormatBytesPerSec(s.AggregateBW))
		case "contention":
			contention.AddRow(fmt.Sprint(pt.Params.Int("writers", 0)),
				metrics.FormatBytesPerSec(s.AggregateBW), metrics.FormatBytesPerSec(s.MeanPerWriterBW()))
		case "storm":
			storm, stormWriters = s, pt.Params.Int("writers", 0)
		case "noise":
			for _, smp := range pt.Samples {
				bws = append(bws, smp.AggregateBW/pfs.MB)
				imbs = append(imbs, smp.ImbalanceFactor())
			}
		}
	}

	var b strings.Builder
	fs := m.FS
	fmt.Fprintf(&b, "== %s ==\nstorage targets: %d (experiments use %d)\n", m.Name, fs.NumOSTs, m.ExperimentOSTs)
	fmt.Fprintf(&b, "per-target disk: %s   effective cache: %s   ingest: %s\n",
		metrics.FormatBytesPerSec(fs.DiskBW), metrics.FormatBytes(fs.CacheBytes), metrics.FormatBytesPerSec(fs.IngestBW))
	fmt.Fprintf(&b, "client stream cap: %s   single-file stripe limit: %d targets\n\n",
		metrics.FormatBytesPerSec(fs.ClientCap), fs.MaxStripeCount)
	fmt.Fprintf(&b, "probe 1: single-stream write bandwidth vs size (clean system)\n%s\n", single.Render())
	fmt.Fprintf(&b, "probe 2: per-target aggregate bandwidth vs concurrent writers (128MB each)\n%s\n", contention.Render())
	fmt.Fprintf(&b, "probe 3: metadata create storm (%d simultaneous creates)\n", stormWriters)
	fmt.Fprintf(&b, "  storm completion: %.3fs   MDS queue peak: %d\n\n", storm.Elapsed, storm.QueuePeak)
	bsum, isum := metrics.Summarize(bws), metrics.Summarize(imbs)
	fmt.Fprintf(&b, "probe 4: background-noise footprint (%d hourly-style tests, 64MB/writer)\n", len(bws))
	fmt.Fprintf(&b, "  bandwidth: mean %.0f MB/s  CoV %.0f%%\n", bsum.Mean, bsum.CoVPercent())
	fmt.Fprintf(&b, "  imbalance: mean %.2f  max %.2f\n", isum.Mean, isum.Max)
	return []scenario.Artifact{{Name: "machine-probe.txt", Text: b.String()}}, nil, nil
}
