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

// msgPool recycles scMsg envelopes. The kernel's handoff discipline makes
// it single-threaded. Each step's state carries one, so its envelopes are
// recycled with the rest of the step through the world's step arena; the
// free list holds only zeroed envelopes (put clears them), so a parked
// pool references no index slice.
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
	return &Adaptive{w: w, fs: fs, cfg: cfg, steps: make(map[string]*stepState)}, nil
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
//
// Everything but the result and the index slab is step-private: when the
// step's last rank returns, the state is parked in the world's step arena
// (mpisim.World.Park), and the next step of any Adaptive on that world
// whose group plan has the same shape takes it back — rank machines, SC
// and C pumps with their scratch, per-group and per-rank tables, wait
// groups, envelopes and cached names — instead of rebuilding it. The
// StepResult (with WriterTimes) and the index slab its Global points into
// are allocated fresh for every step, because results outlive their step.
type stepState struct {
	name      string
	seq       int
	res       *iomethod.StepResult
	gsize     int     // group size: with the world's rank count, the plan's shape
	groups    [][]int // writer ranks per group
	groupOf   []int   // rank -> group
	files     []*pfs.File
	fileNames []string // per group, formatted for namesFor
	gidxName  string   // global-index file name, formatted for namesFor
	namesFor  string   // the step name fileNames and gidxName were formatted for
	scNames   []string // per group, the SC pump's process name
	dataOf    []iomethod.RankData
	machines  []stepCont // per rank, one backing array for the whole step
	scs       []scCont   // per group, the sub-coordinator pump machines
	cc        cCont      // the coordinator pump machine
	pool      msgPool

	// The step's BP index. sizeIndex allocates entries and dims at the
	// setup barrier, exactly sized for every rank's records; each SC
	// appends its local index there in rank order at its epilogue, so the
	// slab never regrows and len(entries) is the shared cursor. indexed
	// marks each writer whose index body reached an SC, exactly once.
	entries  []bp.VarEntry
	dims     []uint64
	nEntries int
	indexed  []bool

	setupDone *simkernel.WaitGroup
	start     *simkernel.WaitGroup   // a latch: reaches zero when the timed phase starts
	scDone    []*simkernel.WaitGroup // per group: the SC pump finished
	cDone     *simkernel.WaitGroup   // the C pump finished
	t0        simkernel.Time
	t0Set     bool
	returned  int
}

// arenaKey names the adaptive method's slot in a world's step arena.
type arenaKey struct{}

// groupSize is the writer-group size planGroups uses for W ranks over the
// given number of storage targets.
func groupSize(W, targets int) int {
	if targets > W {
		targets = W
	}
	return (W + targets - 1) / targets
}

// planGroups splits W ranks into contiguous groups, one per storage target,
// shrinking the group count when there are fewer writers than targets.
func planGroups(W, targets int) [][]int {
	gsize := groupSize(W, targets)
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

// newStepState builds the step-private state for this world and group plan.
func (a *Adaptive) newStepState() *stepState {
	W := a.w.Size()
	k := a.w.Kernel()
	groups := planGroups(W, len(a.cfg.OSTs))
	st := &stepState{
		gsize:     len(groups[0]),
		groups:    groups,
		groupOf:   make([]int, W),
		files:     make([]*pfs.File, len(groups)),
		fileNames: make([]string, len(groups)),
		scNames:   make([]string, len(groups)),
		dataOf:    make([]iomethod.RankData, W),
		machines:  make([]stepCont, W),
		scs:       make([]scCont, len(groups)),
		indexed:   make([]bool, W),
		setupDone: simkernel.NewWaitGroup(k),
		start:     simkernel.NewWaitGroup(k),
		scDone:    make([]*simkernel.WaitGroup, len(groups)),
		cDone:     simkernel.NewWaitGroup(k),
	}
	for g, members := range groups {
		for _, r := range members {
			st.groupOf[r] = g
		}
		st.scNames[g] = fmt.Sprintf("SC[g%d]", g)
		st.scDone[g] = simkernel.NewWaitGroup(k)
	}
	return st
}

// getStep returns (arming on first arrival) the shared state for a step:
// the world's parked state when its shape matches, otherwise a new one.
func (a *Adaptive) getStep(stepName string) *stepState {
	if st, ok := a.steps[stepName]; ok {
		return st
	}
	st, _ := a.w.Unpark(arenaKey{}).(*stepState)
	if st == nil || st.gsize != groupSize(a.w.Size(), len(a.cfg.OSTs)) {
		st = a.newStepState()
	}
	st.arm(stepName, a.stepCount)
	a.stepCount++
	a.steps[stepName] = st
	return st
}

// arm readies new or recycled step state for the step named stepName.
// Recycled state was parked by its last rank, so its wait groups are at
// zero and its machines have all finished.
func (st *stepState) arm(stepName string, seq int) {
	W := len(st.groupOf)
	st.name = stepName
	st.seq = seq
	st.res = &iomethod.StepResult{
		WriterTimes: make([]float64, W),
		Files:       len(st.groups),
	}
	if st.namesFor != stepName || st.gidxName == "" {
		for g := range st.fileNames {
			st.fileNames[g] = fmt.Sprintf("%s.g%04d.bp", stepName, g)
		}
		st.gidxName = stepName + ".gidx.bp"
		st.namesFor = stepName
	}
	clear(st.files)
	clear(st.dataOf)
	clear(st.indexed)
	st.entries, st.dims, st.nEntries = nil, nil, 0
	st.t0, st.t0Set, st.returned = 0, false, 0
	st.setupDone.Add(W)
	st.start.Add(1)
}

// sizeIndex allocates the step's index slab at the setup barrier, when
// every rank's data is known: one entries and one dims allocation holding
// exactly the records every writer contributes.
func (st *stepState) sizeIndex() {
	nE, nD := 0, 0
	for i := range st.dataOf {
		nE += len(st.dataOf[i].Vars)
		for _, v := range st.dataOf[i].Vars {
			nD += len(v.Dims)
		}
	}
	st.entries = make([]bp.VarEntry, 0, nE)
	st.dims = make([]uint64, 0, nD)
	st.nEntries = nE
}

// checkIndexed is the exactly-once index invariant, checked at C's gather
// on every step: every writer's index body reached an SC (a second one
// already panicked there), and the SCs' local indices fill the step's slab
// exactly.
func (st *stepState) checkIndexed() {
	for r, ok := range st.indexed {
		if !ok {
			panic(fmt.Sprintf("core: step %q: writer %d was never indexed", st.name, r))
		}
	}
	if len(st.entries) != st.nEntries || cap(st.entries) != st.nEntries {
		panic(fmt.Sprintf("core: step %q: index slab holds %d of %d entries (capacity %d)",
			st.name, len(st.entries), st.nEntries, cap(st.entries)))
	}
}

// finish retires a step whose last rank has returned: it leaves the map
// and its state is parked in the world's step arena for the next step
// (arm gives that step its own result and index slab).
func (a *Adaptive) finish(st *stepState) {
	delete(a.steps, st.name)
	a.w.Park(arenaKey{}, st)
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
func (a *Adaptive) spawnSC(r *mpisim.Rank, st *stepState, g int) {
	s := &st.scs[g]
	s.arm(a, r, st, g)
	a.w.Kernel().SpawnCont(st.scNames[g], s)
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
func (a *Adaptive) spawnC(r *mpisim.Rank, st *stepState) {
	s := &st.cc
	s.arm(a, r, st)
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
