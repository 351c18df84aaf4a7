// Package mpiio implements the ADIOS MPI-IO transport the paper evaluates
// adaptive IO against (Section III-A): the well-tuned baseline that buffers
// all output on the compute nodes and writes a single shared file.
//
// It carries the baseline's Lustre-specific optimisations from the authors'
// earlier work: every rank's buffered output is written as one contiguous
// block, and the shared file's stripe size is set to the block size so each
// rank's block lands on exactly one storage target. What it cannot escape is
// the Lustre 1.6 limit of 160 storage targets for a single file — with
// tens of thousands of writers that forces many writers per target
// (internal interference), and a transient slowdown of any one of the 160
// targets stalls every rank mapped to it (external interference), since the
// collective completes only when the slowest writer does.
//
// The SplitFiles option implements the alternative the paper's Section II-3
// discusses: splitting the output into several shared files so the
// application can reach the whole file system. As the paper argues (and the
// tests verify), this alleviates internal interference but solves neither
// it nor external interference.
package mpiio

import (
	"fmt"

	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Config tunes the MPI-IO baseline.
type Config struct {
	// OSTs are the storage targets available; each shared file uses at most
	// the file system's MaxStripeCount of them (160 on the paper's Lustre
	// 1.6). Empty means targets 0..N-1.
	OSTs []int

	// NoFlush drops the explicit pre-close flush from the timed region
	// (the paper's methodology includes it; tests may disable it).
	NoFlush bool

	// SplitFiles splits the output into this many shared files, each on
	// its own slice of storage targets — the Section II-3 alternative
	// ("splitting output into 5 parts would enable an application to take
	// full advantage of the entire file system's resources"). Zero or one
	// means a single shared file.
	SplitFiles int
}

// Method is the MPI-IO transport bound to a world and file system.
type Method struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	steps     map[string]*stepState
	stepCount int
}

// stepState is the shared bookkeeping of one collective output step.
// Everything but the result is step-private: when the step's last rank
// returns, the state is parked in the world's step arena
// (mpisim.World.Park), and the next step of any Method on that world with
// the same cohort count takes it back — rank machines with their op
// scratch, per-rank and per-cohort tables, wait groups and cached file
// names. The StepResult, and the indices its Global holds, are allocated
// fresh for every step, because results outlive their step.
type stepState struct {
	name      string
	seq       int
	res       *iomethod.StepResult
	files     []*pfs.File // per cohort
	fileNames []string    // per cohort, formatted for namesFor
	namesFor  string      // the step name fileNames were formatted for
	osts      []int       // scratch: a leader's cohort layout, copied by the create
	offsets   []int64     // per rank, within its cohort's file
	sizes     []int64     // per rank

	arrivedWG *simkernel.WaitGroup   // all ranks registered their sizes
	createdWG *simkernel.WaitGroup   // every cohort leader created its file
	writersWG []*simkernel.WaitGroup // per cohort: writers finished
	closedWG  []*simkernel.WaitGroup // per cohort: footer written, closed
	t0        simkernel.Time
	t0Set     bool
	returned  int
	dataOf    []iomethod.RankData // per rank; leaders rebuild index records from these
	machines  []stepCont          // per rank, one backing array for the whole step
	locals    []bp.LocalIndex
	indexed   int
	createErr error
}

// New builds the MPI-IO method.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Method, error) {
	if len(cfg.OSTs) == 0 {
		cfg.OSTs = make([]int, len(fs.OSTs))
		for i := range cfg.OSTs {
			cfg.OSTs[i] = i
		}
	}
	for _, o := range cfg.OSTs {
		if o < 0 || o >= len(fs.OSTs) {
			return nil, fmt.Errorf("mpiio: OST %d out of range", o)
		}
	}
	if cfg.SplitFiles < 0 {
		return nil, fmt.Errorf("mpiio: negative SplitFiles")
	}
	if cfg.SplitFiles == 0 {
		cfg.SplitFiles = 1
	}
	if cfg.SplitFiles > w.Size() {
		cfg.SplitFiles = w.Size()
	}
	return &Method{w: w, fs: fs, cfg: cfg, steps: make(map[string]*stepState)}, nil
}

// Name implements iomethod.Method.
func (m *Method) Name() string { return "MPI" }

// cohortOf maps a rank to its file cohort (contiguous blocks).
func (m *Method) cohortOf(rank int) int {
	per := (m.w.Size() + m.cfg.SplitFiles - 1) / m.cfg.SplitFiles
	return rank / per
}

// cohortRanks returns the ranks of cohort i.
func (m *Method) cohortRanks(i int) (lo, hi int) {
	per := (m.w.Size() + m.cfg.SplitFiles - 1) / m.cfg.SplitFiles
	lo = i * per
	hi = lo + per
	if hi > m.w.Size() {
		hi = m.w.Size()
	}
	return lo, hi
}

// appendCohortOSTs appends cohort i's storage-target slice, capped at the
// single-file stripe limit, to out.
func (m *Method) appendCohortOSTs(out []int, i int) []int {
	k := m.cfg.SplitFiles
	per := len(m.cfg.OSTs) / k
	if per < 1 {
		per = 1
	}
	lo := (i * per) % len(m.cfg.OSTs)
	n := per
	if max := m.fs.Cfg.MaxStripeCount; n > max {
		n = max
	}
	for j := 0; j < n; j++ {
		out = append(out, m.cfg.OSTs[(lo+j)%len(m.cfg.OSTs)])
	}
	return out
}

// cohortOSTs returns cohort i's storage-target slice.
func (m *Method) cohortOSTs(i int) []int { return m.appendCohortOSTs(nil, i) }

// StripeTargets reports the targets the first shared file will use.
func (m *Method) StripeTargets() []int { return m.cohortOSTs(0) }

// Files reports how many shared files a step will produce.
func (m *Method) Files() int { return m.cfg.SplitFiles }

// arenaKey names the MPI-IO method's slot in a world's step arena.
type arenaKey struct{}

// newStepState builds the step-private state for this world and cohort
// count.
func (m *Method) newStepState() *stepState {
	W := m.w.Size()
	k := m.w.Kernel()
	nFiles := m.cfg.SplitFiles
	st := &stepState{
		files:     make([]*pfs.File, nFiles),
		fileNames: make([]string, nFiles),
		offsets:   make([]int64, W),
		sizes:     make([]int64, W),
		dataOf:    make([]iomethod.RankData, W),
		machines:  make([]stepCont, W),
		locals:    make([]bp.LocalIndex, nFiles),
		arrivedWG: simkernel.NewWaitGroup(k),
		createdWG: simkernel.NewWaitGroup(k),
		writersWG: make([]*simkernel.WaitGroup, nFiles),
		closedWG:  make([]*simkernel.WaitGroup, nFiles),
	}
	for i := 0; i < nFiles; i++ {
		st.writersWG[i] = simkernel.NewWaitGroup(k)
		st.closedWG[i] = simkernel.NewWaitGroup(k)
	}
	return st
}

// getStep returns (arming on first arrival) the shared state for a step:
// the world's parked state when its cohort count matches, otherwise a new
// one.
func (m *Method) getStep(stepName string) *stepState {
	if st, ok := m.steps[stepName]; ok {
		return st
	}
	st, _ := m.w.Unpark(arenaKey{}).(*stepState)
	if st == nil || len(st.files) != m.cfg.SplitFiles {
		st = m.newStepState()
	}
	m.arm(st, stepName)
	m.steps[stepName] = st
	return st
}

// arm readies new or recycled step state for the step named stepName.
// Recycled state was parked by its last rank, so its wait groups are at
// zero and its machines have all finished.
func (m *Method) arm(st *stepState, stepName string) {
	W := m.w.Size()
	nFiles := len(st.files)
	st.name = stepName
	st.seq = m.stepCount
	m.stepCount++
	st.res = &iomethod.StepResult{
		WriterTimes: make([]float64, W),
		Files:       nFiles,
	}
	if st.namesFor != stepName || st.fileNames[0] == "" {
		for i := range st.fileNames {
			st.fileNames[i] = fileName(stepName, i, nFiles)
		}
		st.namesFor = stepName
	}
	clear(st.files)
	clear(st.dataOf)
	clear(st.locals)
	st.t0, st.t0Set, st.returned = 0, false, 0
	st.indexed = 0
	st.createErr = nil
	st.arrivedWG.Add(W)
	st.createdWG.Add(nFiles)
	for i := 0; i < nFiles; i++ {
		lo, hi := m.cohortRanks(i)
		st.writersWG[i].Add(hi - lo)
		st.closedWG[i].Add(1)
	}
}

// finish retires a step whose last rank has returned: it leaves the map
// and its state is parked in the world's step arena for the next step
// (arm gives that step its own result).
func (m *Method) finish(st *stepState) {
	delete(m.steps, st.name)
	m.w.Park(arenaKey{}, st)
}

// fileName names cohort i's shared file.
func fileName(stepName string, cohort, total int) string {
	if total == 1 {
		return stepName + ".bp"
	}
	return fmt.Sprintf("%s.part%02d.bp", stepName, cohort)
}

// WriteStep implements iomethod.Method by running the rank's step machine
// (cont.go) on the rank's goroutine.
func (m *Method) WriteStep(r *mpisim.Rank, stepName string, data iomethod.RankData) (*iomethod.StepResult, error) {
	sc := m.BeginStepCont(r, stepName, data)
	r.Proc().Await(sc.Step)
	return sc.Result()
}
