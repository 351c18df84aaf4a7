package core

import (
	"fmt"
	"time"

	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Message tags: each role listens on its own tag so the writer, SC, and C
// activities hosted by one rank never steal each other's messages.
const (
	tagToWriter = 1001
	tagToSC     = 1002
	tagToC      = 1003
)

// scKind discriminates the wire messages of Algorithms 1–3. The whole
// protocol travels in one pooled envelope type (scMsg) rather than one
// struct type per message: a *scMsg is pointer-shaped, so storing it in
// Message.Data costs no interface-boxing allocation, and recycling the
// envelopes through msgPool makes steady-state send/receive 0 allocs/op.
type scKind uint8

const (
	// kindWriteGo is the "(target, offset)" signal a writer waits for.
	// Fields: target, offset.
	kindWriteGo scKind = iota
	// kindWriteComplete is Algorithm 1's WRITE COMPLETE.
	// Fields: writer, source, target, bytes.
	kindWriteComplete
	// kindIndexBody announces that a writer's index records are on the wire
	// to the target SC. The records themselves are derivable — the SC holds
	// every rank's RankData in st.dataOf and reconstructs them from
	// (writer, offset) on receipt, building its merged index in place
	// instead of copying a per-writer slice out of each message.
	// Fields: writer, offset.
	kindIndexBody
	// kindAdaptiveStart is C's ADAPTIVE WRITE START request to an SC.
	// Fields: target, offset.
	kindAdaptiveStart
	// kindWritersBusy is the SC's refusal: all its writers are scheduled.
	// Fields: group, target (echoed so C can free the reserved target).
	kindWritersBusy
	// kindSCComplete is the SC's completion report (with its file's end).
	// Fields: group, offset (the final file-end offset).
	kindSCComplete
	// kindAdaptiveDone is the triggering SC's forward of an adaptive
	// write's completion to C. Fields: source, target, bytes.
	kindAdaptiveDone
	// kindWriteFailed is a writer's report that its assigned write was
	// abandoned with pfs.ErrTargetDown: the target was Dead past the
	// client timeout. The triggering SC requeues the writer.
	// Fields: writer, source, target.
	kindWriteFailed
	// kindAdaptiveFailed is the SC's forward of a failed adaptive write to
	// C: the redirect target is dead, its request slot is released and the
	// target blacklisted; the writer is already requeued at the SC.
	// Fields: source, target.
	kindAdaptiveFailed
	// kindRetryOwn is the SC's self-addressed backoff probe: clear the
	// own-target-dead latch and try feeding the own file again. This is how
	// the SC distinguishes "slow" from "dead" — a slow target completes its
	// writes eventually, a dead one fails them, and the probe retries until
	// the target has revived. No fields.
	kindRetryOwn
	// kindOverallComplete is C's OVERALL WRITE COMPLETE broadcast. No
	// fields.
	kindOverallComplete
	// kindLocalIndex ships an SC's finished local index to C.
	// Fields: group, index.
	kindLocalIndex
)

// scMsg is the pooled wire envelope for the adaptive protocol. The fields
// form a union across kinds (see the scKind constants for which are live);
// every envelope is owned by exactly one in-flight message — the receiver
// returns it to the pool after reading it, so a message that fans out to
// two recipients is sent as two envelopes.
type scMsg struct {
	kind   scKind
	writer int
	source int
	target int
	group  int
	offset int64
	bytes  int64
	index  bp.LocalIndex
}

// msgPool recycles scMsg envelopes within one Adaptive instance. The
// kernel's handoff discipline makes it single-threaded; New registers a
// Kernel.OnReset hook so the free list is swept when the world is reset,
// dropping any index slices the envelopes may still reference.
type msgPool struct {
	free []*scMsg
}

// get takes an envelope from the free list (allocating only when empty) and
// stamps its kind. All other fields are zero: put cleared them.
//
//repro:hotpath
func (pl *msgPool) get(kind scKind) *scMsg {
	if n := len(pl.free); n > 0 {
		m := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		m.kind = kind
		return m
	}
	return &scMsg{kind: kind}
}

// put returns a consumed envelope to the free list, zeroing it so stale
// payloads (in particular index slices) don't outlive their message.
//
//repro:hotpath
func (pl *msgPool) put(m *scMsg) {
	*m = scMsg{}
	pl.free = append(pl.free, m)
}

// sweep empties the free list. Registered with Kernel.OnReset by New.
func (pl *msgPool) sweep() {
	for i := range pl.free {
		pl.free[i] = nil
	}
	pl.free = pl.free[:0]
}

// Config tunes the adaptive method.
type Config struct {
	// OSTs are the storage targets to use, one writer group per target
	// (the paper's evaluations use 512 of Jaguar's OSTs, successfully
	// tested with all 672). Empty means all targets of the file system.
	OSTs []int

	// WritersPerTarget generalises the "one simultaneous writer per storage
	// location" invariant (the paper mentions 2–3 as an unevaluated
	// generalisation). Default 1, the paper's configuration.
	WritersPerTarget int

	// StaggerOpens spaces the sub-coordinators' file creates by this delay
	// times the group index, the stagger technique for managing metadata-
	// server load (from the authors' earlier Cray User's Group work).
	// Zero disables staggering.
	StaggerOpens time.Duration

	// WriteGlobalIndex controls whether the coordinator writes the merged
	// global index file at the end of the step (default true via New).
	WriteGlobalIndex bool

	// DisableAdaptation turns the coordinator's work-shifting off while
	// keeping everything else (grouping, serialisation, indexing) intact —
	// a pure ablation of the adaptive mechanism itself.
	DisableAdaptation bool

	// HistoryAware enables the paper's future-work extension ("more
	// complex and/or state-rich methods for system adaptation, including
	// those that take into account past usage data"): instead of serving
	// idle targets in scan order, the coordinator dispatches adaptive
	// writes to the idle target with the highest observed bandwidth
	// (bytes written / completion time), so redirected work prefers the
	// fastest areas of the file system.
	HistoryAware bool
}

// Adaptive is the adaptive IO method bound to a world and file system.
type Adaptive struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	steps     map[string]*stepState
	stepCount int
	pool      msgPool
}

// New builds an Adaptive method. The zero Config selects all storage
// targets, one writer per target, no stagger, and global-index writing.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Adaptive, error) {
	if len(cfg.OSTs) == 0 {
		cfg.OSTs = make([]int, len(fs.OSTs))
		for i := range cfg.OSTs {
			cfg.OSTs[i] = i
		}
	}
	for _, o := range cfg.OSTs {
		if o < 0 || o >= len(fs.OSTs) {
			return nil, fmt.Errorf("core: OST %d out of range", o)
		}
	}
	if cfg.WritersPerTarget == 0 {
		cfg.WritersPerTarget = 1
	}
	if cfg.WritersPerTarget < 0 {
		return nil, fmt.Errorf("core: negative WritersPerTarget")
	}
	cfg.WriteGlobalIndex = true
	a := &Adaptive{w: w, fs: fs, cfg: cfg, steps: make(map[string]*stepState)}
	// Sweep the envelope free list when the kernel (and so the world) is
	// reset between replicas; a reused world's next Adaptive re-registers.
	w.Kernel().OnReset(a.pool.sweep)
	return a, nil
}

// NewNoGlobalIndex is New with the global indexing phase disabled (the
// paper's deployed configuration, which used characteristics-based search
// of the per-file indices instead).
func NewNoGlobalIndex(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Adaptive, error) {
	a, err := New(w, fs, cfg)
	if err != nil {
		return nil, err
	}
	a.cfg.WriteGlobalIndex = false
	return a, nil
}

// Name implements iomethod.Method.
func (a *Adaptive) Name() string { return "ADAPTIVE" }

// stepState is the shared bookkeeping of one collective output step.
type stepState struct {
	name      string
	seq       int
	res       *iomethod.StepResult
	groups    [][]int // writer ranks per group
	groupOf   []int   // rank -> group
	files     []*pfs.File
	fileNames []string
	dataOf    []iomethod.RankData
	machines  []stepCont // per rank, one backing array for the whole step
	scs       []scCont   // per group, the sub-coordinator pump machines
	cc        cCont      // the coordinator pump machine
	gidxName  string     // precomputed global-index file name

	arrived   int
	setupDone *simkernel.WaitGroup
	start     *simkernel.Signal
	t0        simkernel.Time
	t0Set     bool
	returned  int
}

// planGroups splits W ranks into contiguous groups, one per storage target,
// shrinking the group count when there are fewer writers than targets.
func planGroups(W, targets int) [][]int {
	if targets > W {
		targets = W
	}
	gsize := (W + targets - 1) / targets
	numGroups := (W + gsize - 1) / gsize
	groups := make([][]int, 0, numGroups)
	for g := 0; g < numGroups; g++ {
		lo := g * gsize
		hi := lo + gsize
		if hi > W {
			hi = W
		}
		members := make([]int, 0, hi-lo)
		for r := lo; r < hi; r++ {
			members = append(members, r)
		}
		groups = append(groups, members)
	}
	return groups
}

// getStep returns (creating on first arrival) the shared state for a step.
func (a *Adaptive) getStep(stepName string) *stepState {
	st, ok := a.steps[stepName]
	if !ok {
		W := a.w.Size()
		groups := planGroups(W, len(a.cfg.OSTs))
		st = &stepState{
			name:      stepName,
			seq:       a.stepCount,
			groups:    groups,
			groupOf:   make([]int, W),
			files:     make([]*pfs.File, len(groups)),
			fileNames: make([]string, len(groups)),
			dataOf:    make([]iomethod.RankData, W),
			machines:  make([]stepCont, W),
			scs:       make([]scCont, len(groups)),
			gidxName:  stepName + ".gidx.bp",
			setupDone: simkernel.NewWaitGroup(a.w.Kernel()),
			start:     simkernel.NewSignal(a.w.Kernel()),
			res: &iomethod.StepResult{
				WriterTimes: make([]float64, W),
				Files:       len(groups),
			},
		}
		a.stepCount++
		for g, members := range groups {
			for _, r := range members {
				st.groupOf[r] = g
			}
			st.fileNames[g] = fmt.Sprintf("%s.g%04d.bp", stepName, g)
		}
		st.setupDone.Add(W)
		a.steps[stepName] = st
	}
	return st
}

// WriteStep implements iomethod.Method. Every rank must call it with the
// same stepName; it returns once this rank's writer role (and any SC/C
// roles it hosts) have finished the step. It runs the rank's step machine
// (cont.go) on the rank's goroutine.
func (a *Adaptive) WriteStep(r *mpisim.Rank, stepName string, data iomethod.RankData) (*iomethod.StepResult, error) {
	sc := a.BeginStepCont(r, stepName, data)
	r.Proc().Await(sc.Step)
	return sc.Result()
}

// spawnSC launches the sub-coordinator loop (Algorithm 2) as a helper
// continuation process (scCont, pump.go) on the SC rank, whichever engine
// carries the rank bodies.
func (a *Adaptive) spawnSC(r *mpisim.Rank, st *stepState, g int, done *simkernel.WaitGroup) {
	s := &st.scs[g]
	s.arm(a, r, st, g, done)
	a.w.Kernel().SpawnCont(fmt.Sprintf("SC[g%d]", g), s)
}

// groupPhase is C's view of an SC's state (Algorithm 3).
type groupPhase int

const (
	phaseWriting groupPhase = iota
	phaseBusy
	phaseComplete
)

// spawnC launches the coordinator loop (Algorithm 3) as a helper
// continuation process (cCont, pump.go) on rank 0, like spawnSC.
func (a *Adaptive) spawnC(r *mpisim.Rank, st *stepState, done *simkernel.WaitGroup) {
	s := &st.cc
	s.arm(a, r, st, done)
	a.w.Kernel().SpawnCont("C", s)
}

// Groups exposes the group plan for a hypothetical world size (testing and
// diagnostics).
func (a *Adaptive) Groups(worldSize int) [][]int {
	return planGroups(worldSize, len(a.cfg.OSTs))
}

// sortByDesc sorts xs in place by descending key[x] (stable insertion sort —
// target lists are short). Taking the key as a slice rather than a closure
// keeps the coordinator's dispatch path free of per-call closure allocation.
func sortByDesc(xs []int, key []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && key[xs[j]] > key[xs[j-1]]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
