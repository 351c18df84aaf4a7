// Package experiments reproduces, one driver per artifact, every table and
// figure of the paper's measurement and evaluation sections:
//
//	Fig1   — internal interference: IOR weak-scaling grid on Jaguar (II-1)
//	TableI — external interference variability on three machines (II-2)
//	Fig2   — bandwidth histograms of the Table I samples (II-2)
//	Fig3   — per-writer write times and imbalance factors (II-2)
//	Fig5   — Pixie3D small/large/XL, MPI-IO vs adaptive, ±interference (IV-A)
//	Fig6   — XGC1 38 MB/process, same comparison (IV-B)
//	Fig7   — standard deviation of write times for the four cases (IV-C)
//
// Every driver takes an options struct whose zero value reproduces the
// paper's configuration (writer counts, sample counts, machine presets) and
// offers scaling knobs so tests and benchmarks can run the same shapes at
// reduced cost. All results carry the raw samples so downstream analyses
// (Fig 2 and Fig 7 reuse Table I and Fig 5/6 data, as in the paper).
//
// Each driver is a thin builder of a declarative spec (internal/scenario)
// plus a demux of the generic run back into its canonical tables and
// figures; register.go exposes the same drivers through the scenario
// registry for the CLI's -scenario flag. Seed labels and grid-point labels
// are part of the reproducibility contract and must not change.
package experiments

// Condition labels the two evaluation environments of Section IV.
type Condition string

const (
	// Base is the paper's "normal system conditions with whatever other
	// simultaneous jobs happen to be running" (production noise on).
	Base Condition = "base"
	// Interference adds the artificial interference program: 24 processes
	// continuously writing 1 GB chunks, 3 per target across 8 targets.
	Interference Condition = "interference"
)

// firstN returns [0, 1, ..., n).
func firstN(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
