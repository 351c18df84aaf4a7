package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/machines"
	"repro/internal/scenario"
)

// TestMachineProbeShapes runs the machine-probe scenario on every preset
// and checks what each probe exists to show: a single stream never beats
// the client stream cap, per-writer bandwidth on one target only falls as
// writers are added, and the open storm queues at the metadata server.
func TestMachineProbeShapes(t *testing.T) {
	for _, name := range machines.Names() {
		t.Run(name, func(t *testing.T) {
			s := MachineProbeScenario()
			if err := scenario.ApplySet(&s, "machine="+name); err != nil {
				t.Fatal(err)
			}
			res, err := scenario.Run(s, scenario.RunOptions{Seed: 42, Parallel: 2})
			if err != nil {
				t.Fatal(err)
			}
			m, _ := machines.ByName(name, 0)
			counts := map[string]int{}
			prev := math.Inf(1)
			for _, pt := range res.Points {
				group, _, _ := strings.Cut(pt.Label, "/")
				counts[group]++
				smp := pt.Samples[0]
				switch group {
				case "single":
					if smp.AggregateBW > m.FS.ClientCap {
						t.Errorf("%s: %g B/s exceeds the client stream cap %g", pt.Label, smp.AggregateBW, m.FS.ClientCap)
					}
				case "contention":
					if bw := smp.MeanPerWriterBW(); bw > prev {
						t.Errorf("%s: per-writer %g B/s rose from %g", pt.Label, bw, prev)
					} else {
						prev = bw
					}
				case "storm":
					if smp.QueuePeak <= 0 {
						t.Errorf("storm: MDS queue peak %d, want > 0", smp.QueuePeak)
					}
				case "noise":
					if len(pt.Samples) != 16 {
						t.Errorf("noise: %d samples, want 16", len(pt.Samples))
					}
				}
			}
			for _, w := range []struct {
				group string
				n     int
			}{{"single", 5}, {"contention", 6}, {"storm", 1}, {"noise", 1}} {
				if counts[w.group] != w.n {
					t.Errorf("%d %s points, want %d", counts[w.group], w.group, w.n)
				}
			}
			def, _ := scenario.Lookup("machine-probe")
			artifacts, _, err := def.Render(res, scenario.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(artifacts[0].Text, "== "+m.Name+" ==") {
				t.Errorf("header does not name %s:\n%s", m.Name, artifacts[0].Text)
			}
		})
	}
}
