// Package workloads generates the output patterns of the petascale codes
// the paper evaluates with:
//
//   - Pixie3D, a 3-D extended-MHD solver whose output is eight
//     double-precision 3-D arrays per process, at 32³ ("small", 2 MB/proc),
//     128³ ("large", 128 MB/proc) or 256³ ("extra large", 1 GB/proc) cubes,
//     weak scaling (Section IV-A).
//   - XGC1, a gyrokinetic particle-in-cell fusion code, at a representative
//     38 MB per process (Section IV-B).
//   - An S3D-like combustion checkpoint generator (the paper repeatedly
//     situates its data sizes against S3D and Chimera runs), provided for
//     the extension benchmarks.
//
// The generators produce iomethod.RankData: the paper uses the codes purely
// as IO-pattern sources, so shape and size (plus index characteristics) are
// what must be faithful.
package workloads

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/iomethod"
)

// memoPerRank wraps a per-rank generator with a lazily filled cache. A
// rank's RankData is a deterministic function of the rank alone and every
// consumer treats it as immutable (iomethod.BuildEntries copies what it
// keeps), so replaying the same workload across many campaign replicas pays
// the generation cost once per rank instead of once per replica. The cache
// lives as long as the Generator holding it: scenario.Run resolves each
// grid point's generator once, so one memo serves every replica and worker
// of the point, while each ByName call starts a fresh, empty one. The mutex
// makes the cache safe for the parallel replica runners; results are
// identical regardless of which worker fills an entry.
func memoPerRank(gen func(rank int) iomethod.RankData) func(rank int) iomethod.RankData {
	var mu sync.Mutex
	cache := make(map[int]iomethod.RankData)
	return func(rank int) iomethod.RankData {
		mu.Lock()
		d, ok := cache[rank]
		if !ok {
			d = gen(rank)
			cache[rank] = d
		}
		mu.Unlock()
		return d
	}
}

// Pixie3DSize selects the paper's three Pixie3D configurations.
type Pixie3DSize int

const (
	// Pixie3DSmall is the 32-cube model: 2 MB per process.
	Pixie3DSmall Pixie3DSize = iota
	// Pixie3DLarge is the 128-cube model: 128 MB per process.
	Pixie3DLarge
	// Pixie3DXL is the 256-cube model: 1 GB per process.
	Pixie3DXL
)

// Cube returns the per-axis elements of the configuration.
func (s Pixie3DSize) Cube() int {
	switch s {
	case Pixie3DSmall:
		return 32
	case Pixie3DLarge:
		return 128
	case Pixie3DXL:
		return 256
	}
	panic(fmt.Sprintf("workloads: unknown Pixie3D size %d", s))
}

// String names the configuration as the paper does.
func (s Pixie3DSize) String() string {
	switch s {
	case Pixie3DSmall:
		return "small"
	case Pixie3DLarge:
		return "large"
	case Pixie3DXL:
		return "extra large"
	}
	return "unknown"
}

// BytesPerProcess returns the per-process output volume.
func (s Pixie3DSize) BytesPerProcess() int64 {
	c := int64(s.Cube())
	return 8 * c * c * c * 8 // 8 variables × cube³ × sizeof(float64)
}

// pixie3DVars are the eight double-precision MHD state arrays.
var pixie3DVars = []string{"rho", "p", "v_x", "v_y", "v_z", "B_x", "B_y", "B_z"}

// Pixie3D returns rank's output for one step of the given size class.
// Min/Max characteristics are deterministic functions of (rank, variable)
// so that index-based value search is exercised meaningfully.
func Pixie3D(rank int, size Pixie3DSize) iomethod.RankData {
	c := uint64(size.Cube())
	perVar := int64(8 * c * c * c)
	vars := make([]iomethod.VarSpec, 0, len(pixie3DVars))
	for i, name := range pixie3DVars {
		center := pseudoValue(rank, i)
		vars = append(vars, iomethod.VarSpec{
			Name:  name,
			Bytes: perVar,
			Dims:  []uint64{c, c, c},
			Min:   center - 1,
			Max:   center + 1,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// XGC1BytesPerProcess is the representative production output size the
// paper uses (38 MB per process).
const XGC1BytesPerProcess = 38 * 1024 * 1024

// XGC1 returns rank's output for one step: particle phase-space arrays
// summing to 38 MB.
func XGC1(rank int) iomethod.RankData {
	// Five particle arrays: position (3 components folded), velocity
	// (parallel + perpendicular), weight — proportioned to sum to 38 MB.
	type part struct {
		name string
		frac float64
	}
	parts := []part{
		{"ephase", 0.40},  // electron phase space
		{"iphase", 0.40},  // ion phase space
		{"egid", 0.05},    // electron ids
		{"igid", 0.05},    // ion ids
		{"psn_pot", 0.10}, // field potential slice
	}
	var vars []iomethod.VarSpec
	var used int64
	for i, pt := range parts {
		b := int64(float64(XGC1BytesPerProcess) * pt.frac)
		if i == len(parts)-1 {
			b = XGC1BytesPerProcess - used // exact total
		}
		used += b
		center := pseudoValue(rank, i)
		vars = append(vars, iomethod.VarSpec{
			Name:  pt.name,
			Bytes: b,
			Dims:  []uint64{uint64(b / 8)},
			Min:   center - 0.5,
			Max:   center + 0.5,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// S3D returns an S3D-like combustion checkpoint: a handful of 3-D species
// and state arrays at the given per-process volume (the paper cites ~10 MB
// per process for smaller S3D runs and places 38 MB among "larger S3D
// runs").
func S3D(rank int, bytesPerProcess int64) iomethod.RankData {
	names := []string{"yspecies", "temp", "pressure", "u"}
	fracs := []float64{0.70, 0.10, 0.10, 0.10}
	var vars []iomethod.VarSpec
	var used int64
	for i, name := range names {
		b := int64(float64(bytesPerProcess) * fracs[i])
		if i == len(names)-1 {
			b = bytesPerProcess - used
		}
		used += b
		center := pseudoValue(rank, i)
		vars = append(vars, iomethod.VarSpec{
			Name:  name,
			Bytes: b,
			Dims:  []uint64{uint64(b / 8)},
			Min:   center,
			Max:   center + 100,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// pseudoValue derives a stable characteristic value from (rank, varIndex)
// without randomness, keeping workloads deterministic.
func pseudoValue(rank, varIdx int) float64 {
	x := float64(rank*31+varIdx*7) * 0.618033988749895
	return math.Mod(x, 10) - 5
}

// Generator names a workload for experiment drivers.
type Generator struct {
	// Name identifies the workload ("pixie3d-small", "xgc1", ...).
	Name string
	// PerRank builds a rank's step output.
	PerRank func(rank int) iomethod.RankData
	// BytesPerProcess is the nominal per-process volume.
	BytesPerProcess int64
}

// Pixie3DGen returns a Generator for the given size class.
func Pixie3DGen(size Pixie3DSize) Generator {
	return Generator{
		Name:            "pixie3d-" + size.String(),
		PerRank:         memoPerRank(func(rank int) iomethod.RankData { return Pixie3D(rank, size) }),
		BytesPerProcess: size.BytesPerProcess(),
	}
}

// XGC1Gen returns the XGC1 Generator.
func XGC1Gen() Generator {
	return Generator{
		Name:            "xgc1",
		PerRank:         memoPerRank(XGC1),
		BytesPerProcess: XGC1BytesPerProcess,
	}
}

// S3DGen returns an S3D-like Generator at the given per-process size.
func S3DGen(bytesPerProcess int64) Generator {
	return Generator{
		Name:            "s3d",
		PerRank:         memoPerRank(func(rank int) iomethod.RankData { return S3D(rank, bytesPerProcess) }),
		BytesPerProcess: bytesPerProcess,
	}
}

// GTC returns a GTC-like gyrokinetic toroidal code output. The paper
// situates its 128 MB/process Pixie3D model as "comparable to what many of
// the fusion codes generate on a per process basis, such as GTC": particle
// phase-space arrays dominating, plus field diagnostics.
func GTC(rank int, bytesPerProcess int64) iomethod.RankData {
	names := []string{"zion", "zelectron", "phi_field", "diagnostics"}
	fracs := []float64{0.55, 0.35, 0.08, 0.02}
	var vars []iomethod.VarSpec
	var used int64
	for i, name := range names {
		b := int64(float64(bytesPerProcess) * fracs[i])
		if i == len(names)-1 {
			b = bytesPerProcess - used
		}
		used += b
		center := pseudoValue(rank, i+11)
		vars = append(vars, iomethod.VarSpec{
			Name:  name,
			Bytes: b,
			Dims:  []uint64{uint64(b / 8)},
			Min:   center - 2,
			Max:   center + 2,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// GTCGen returns a GTC Generator at the paper's representative
// 128 MB/process production size.
func GTCGen() Generator {
	const size = 128 * 1024 * 1024
	return Generator{
		Name:            "gtc",
		PerRank:         memoPerRank(func(rank int) iomethod.RankData { return GTC(rank, size) }),
		BytesPerProcess: size,
	}
}

// GTS returns a GTS-like (shaped-plasma gyrokinetic) output: the same
// family as GTC with a different variable split.
func GTS(rank int, bytesPerProcess int64) iomethod.RankData {
	names := []string{"ions", "electrons", "potential"}
	fracs := []float64{0.5, 0.4, 0.1}
	var vars []iomethod.VarSpec
	var used int64
	for i, name := range names {
		b := int64(float64(bytesPerProcess) * fracs[i])
		if i == len(names)-1 {
			b = bytesPerProcess - used
		}
		used += b
		center := pseudoValue(rank, i+23)
		vars = append(vars, iomethod.VarSpec{
			Name:  name,
			Bytes: b,
			Dims:  []uint64{uint64(b / 8)},
			Min:   center,
			Max:   center + 1,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// GTSGen returns a GTS Generator (64 MB/process representative size).
func GTSGen() Generator {
	const size = 64 * 1024 * 1024
	return Generator{
		Name:            "gts",
		PerRank:         memoPerRank(func(rank int) iomethod.RankData { return GTS(rank, size) }),
		BytesPerProcess: size,
	}
}

// Chimera returns a Chimera-like supernova checkpoint (the paper places
// "smaller S3D and Chimera runs" around 10 MB/process and uses Chimera as
// a size reference for the Pixie3D small model).
func Chimera(rank int, bytesPerProcess int64) iomethod.RankData {
	names := []string{"u_radial", "ye", "entropy", "composition"}
	fracs := []float64{0.25, 0.15, 0.15, 0.45}
	var vars []iomethod.VarSpec
	var used int64
	for i, name := range names {
		b := int64(float64(bytesPerProcess) * fracs[i])
		if i == len(names)-1 {
			b = bytesPerProcess - used
		}
		used += b
		center := pseudoValue(rank, i+31)
		vars = append(vars, iomethod.VarSpec{
			Name:  name,
			Bytes: b,
			Dims:  []uint64{uint64(b / 8)},
			Min:   center - 0.1,
			Max:   center + 0.1,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// ChimeraGen returns a Chimera Generator (10 MB/process).
func ChimeraGen() Generator {
	const size = 10 * 1024 * 1024
	return Generator{
		Name:            "chimera",
		PerRank:         memoPerRank(func(rank int) iomethod.RankData { return Chimera(rank, size) }),
		BytesPerProcess: size,
	}
}

// MLTrain returns one training epoch's read signature for an ML job: each
// rank streams its shard of the dataset — sample tensors dominating, a thin
// label array alongside. The paper's workloads are checkpoint writers; this
// generator supplies the read-heavy counterpart that co-scheduled job mixes
// need (training jobs re-reading a shared dataset every epoch).
func MLTrain(rank int, bytesPerProcess int64) iomethod.RankData {
	names := []string{"samples", "labels"}
	fracs := []float64{0.95, 0.05}
	var vars []iomethod.VarSpec
	var used int64
	for i, name := range names {
		b := int64(float64(bytesPerProcess) * fracs[i])
		if i == len(names)-1 {
			b = bytesPerProcess - used
		}
		used += b
		center := pseudoValue(rank, i+41)
		vars = append(vars, iomethod.VarSpec{
			Name:  name,
			Bytes: b,
			Dims:  []uint64{uint64(b / 8)},
			Min:   center - 1,
			Max:   center + 1,
		})
	}
	return iomethod.RankData{Vars: vars}
}

// MLTrainGen returns the ML-training Generator (64 MB of dataset shard per
// process per epoch — ImageNet-scale shards across a few hundred readers).
func MLTrainGen() Generator {
	const size = 64 * 1024 * 1024
	return Generator{
		Name:            "mltrain",
		PerRank:         memoPerRank(func(rank int) iomethod.RankData { return MLTrain(rank, size) }),
		BytesPerProcess: size,
	}
}

// MDTestBytesPerFile is the per-file payload of the metadata workload: 4 KiB,
// mdtest's classic small-file size where create/open/close cost dominates
// data movement.
const MDTestBytesPerFile = 4 * 1024

// MDTest returns the per-file payload signature of an mdtest-style
// metadata-heavy job: one tiny entry per created file. The interesting cost
// is the metadata operations themselves; the job executor multiplies this by
// its files-per-rank count.
func MDTest(rank int) iomethod.RankData {
	center := pseudoValue(rank, 53)
	return iomethod.RankData{Vars: []iomethod.VarSpec{{
		Name:  "entry",
		Bytes: MDTestBytesPerFile,
		Dims:  []uint64{MDTestBytesPerFile / 8},
		Min:   center,
		Max:   center + 1,
	}}}
}

// MDTestGen returns the mdtest-style metadata Generator.
func MDTestGen() Generator {
	return Generator{
		Name:            "mdtest",
		PerRank:         memoPerRank(MDTest),
		BytesPerProcess: MDTestBytesPerFile,
	}
}

// generators is the name→constructor table behind All, Names and ByName,
// in All() order. Each entry's name is the Name its constructor returns
// (TestGeneratorTableNames), so a lookup builds only the generator it
// returns.
var generators = []struct {
	name string
	new  func() Generator
}{
	{"pixie3d-small", func() Generator { return Pixie3DGen(Pixie3DSmall) }},
	{"pixie3d-large", func() Generator { return Pixie3DGen(Pixie3DLarge) }},
	{"pixie3d-extra large", func() Generator { return Pixie3DGen(Pixie3DXL) }},
	{"xgc1", XGC1Gen},
	{"gtc", GTCGen},
	{"gts", GTSGen},
	{"chimera", ChimeraGen},
	{"s3d", func() Generator { return S3DGen(38 * 1024 * 1024) }},
	{"mltrain", MLTrainGen},
	{"mdtest", MDTestGen},
}

// All returns every workload generator at its representative size, for
// sweep-style harnesses.
func All() []Generator {
	out := make([]Generator, len(generators))
	for i, g := range generators {
		out[i] = g.new()
	}
	return out
}

// Names returns every generator name, sorted, for error messages and
// discovery surfaces.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	sort.Strings(names)
	return names
}

// ByName constructs the generator with the given All() name; "pixie3d-xl"
// is accepted as a spelling of the space-containing "pixie3d-extra large".
// Each call returns a fresh generator with its own per-rank memo. Unknown
// names return an error listing the available generators (sorted), so spec
// validation messages tell the user what would have worked.
func ByName(name string) (Generator, error) {
	if name == "pixie3d-xl" {
		name = "pixie3d-extra large"
	}
	for _, g := range generators {
		if g.name == name {
			return g.new(), nil
		}
	}
	return Generator{}, fmt.Errorf("workloads: unknown generator %q (available: %s)",
		name, strings.Join(Names(), ", "))
}
