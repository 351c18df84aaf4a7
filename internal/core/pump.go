package core

import (
	"fmt"
	"slices"

	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The adaptive method's message pumps — the sub-coordinator (Algorithm 2)
// and coordinator (Algorithm 3) receive loops — as run-to-completion
// continuation state machines. These are the protocol's densest message
// paths: every write in the step funnels a completion through an SC, and
// every adaptive redirect round-trips through C, so they run on the
// continuation engine whichever engine carries the rank bodies.
//
// Shape of both machines:
//
//	state 0: wait for the step's start signal (recall style)
//	loop head: check the exit condition; otherwise feed own target and
//	           begin a receive (advance style — the wake resumes at the
//	           handler state, which reads the completed RecvOp)
//	handler:   switch on the envelope kind, recycle the envelope, loop
//	epilogue:  pfs cont ops for the index write, final send, done.Done()
//
// Like every continuation body, the machines signal completion (done.Done())
// in their final state rather than via defer, and they never yield without
// either parking in a primitive or returning true.

// scCont is the sub-coordinator loop (Algorithm 2) for one writer group.
type scCont struct {
	a  *Adaptive
	st *stepState
	r  *mpisim.Rank
	g  int

	pc             int
	waiting        simkernel.Ring[int] // writers not yet signalled
	myOffset       int64
	activeOnMyFile int
	completedOwn   int
	missingIndices int
	scCompleteSent bool
	loopDone       bool
	// ownDead latches when a write to our own file fails with
	// ErrTargetDown: stop feeding the own file and probe again after a
	// backoff (the timeout distinguishes dead from merely slow — slow
	// writes complete, dead ones fail). Waiting writers remain available
	// for adaptive redirection to healthy targets meanwhile.
	ownDead bool
	retry   func() // sends the retry probe; built once per machine
	li      bp.LocalIndex
	encLen  int

	// bodies records each index body received, as (writer, offset): the
	// epilogue rebuilds the local index from them in rank order.
	bodies []indexBody

	recv  mpisim.RecvOp
	write pfs.WriteOp
	flush pfs.FlushOp
	close pfs.CloseOp
}

// indexBody is one writer's index body as an SC received it.
type indexBody struct {
	writer int
	offset int64
}

// byWriter orders index bodies by writer rank.
func byWriter(a, b indexBody) int { return a.writer - b.writer }

// coordRank hosts the coordinator: the adaptive method pins C to rank 0.
const coordRank = 0

// arm readies the machine for one step. A recycled machine keeps its
// scratch: the waiting ring, the index-body list, the retry probe and the
// write and flush ops.
func (s *scCont) arm(a *Adaptive, r *mpisim.Rank, st *stepState, g int) {
	for s.waiting.Len() > 0 {
		s.waiting.Pop()
	}
	*s = scCont{
		a: a, st: st, r: r, g: g,
		waiting: s.waiting,
		retry:   s.retry,
		bodies:  s.bodies[:0],
		write:   s.write,
		flush:   s.flush,
	}
	for _, w := range st.groups[g] {
		s.waiting.Push(w)
	}
	if s.retry == nil {
		s.retry = func() { //repro:allow hotpath retry probe built once per machine, which the step arena keeps
			env := s.st.pool.get(kindRetryOwn)
			s.r.SendFrom(s.r.Rank(), s.r.Rank(), tagToSC, env)
		}
	}
}

// signalNext is Algorithm 2 line 2: keep our own target fed, up to
// WritersPerTarget concurrent writers.
func (s *scCont) signalNext() {
	if s.ownDead {
		return
	}
	for s.activeOnMyFile < s.a.cfg.WritersPerTarget && s.waiting.Len() > 0 {
		wtr := s.waiting.Pop()
		env := s.st.pool.get(kindWriteGo)
		env.target, env.offset = s.g, s.myOffset
		s.r.SendFrom(s.r.Rank(), wtr, tagToWriter, env)
		s.myOffset += s.st.dataOf[wtr].TotalBytes()
		s.activeOnMyFile++
	}
}

// handle processes one protocol message. The caller recycles the envelope.
func (s *scCont) handle(env *scMsg) {
	a, st, g, r := s.a, s.st, s.g, s.r
	switch env.kind {
	case kindWriteComplete:
		if env.source == g && env.target != g {
			// One of mine completed an adaptive write elsewhere:
			// forward to C (Algorithm 2 line 6).
			ad := st.pool.get(kindAdaptiveDone)
			ad.source, ad.target, ad.bytes = g, env.target, env.bytes
			r.SendFrom(r.Rank(), coordRank, tagToC, ad)
			s.completedOwn++
		}
		if env.target == g {
			// A write to my file finished: slot free, and an index
			// body is now owed to me (lines 8–11).
			if env.source == g {
				s.activeOnMyFile--
				s.completedOwn++
			}
			s.missingIndices++
		}
		if s.completedOwn == len(st.groups[g]) && !s.scCompleteSent {
			s.scCompleteSent = true
			sc := st.pool.get(kindSCComplete)
			sc.group, sc.offset = g, s.myOffset
			r.SendFrom(r.Rank(), coordRank, tagToC, sc)
		}
	case kindIndexBody:
		if st.indexed[env.writer] {
			panic(fmt.Sprintf("core: SC[g%d] got a second index body for writer %d", g, env.writer))
		}
		st.indexed[env.writer] = true
		s.bodies = append(s.bodies, indexBody{writer: env.writer, offset: env.offset})
		s.missingIndices--
	case kindWriteFailed:
		// The writer's assigned target died past its timeout:
		// requeue the writer for another assignment.
		s.waiting.Push(env.writer)
		if env.target == g {
			// Our own target. Free the slot, latch ownDead, and
			// schedule a retry probe one timeout from now.
			s.activeOnMyFile--
			if !s.ownDead {
				s.ownDead = true
				a.w.Kernel().AfterSeconds(a.fs.Cfg.DeadTimeout, s.retry)
			}
		} else {
			// A failed adaptive redirect: release C's request slot
			// and let it blacklist the target (Algorithm 3 keeps the
			// offset unchanged — nothing landed).
			af := st.pool.get(kindAdaptiveFailed)
			af.source, af.target = g, env.target
			r.SendFrom(r.Rank(), coordRank, tagToC, af)
		}
	case kindRetryOwn:
		s.ownDead = false
	case kindAdaptiveStart:
		if s.waiting.Len() == 0 {
			wb := st.pool.get(kindWritersBusy)
			wb.group, wb.target = g, env.target
			r.SendFrom(r.Rank(), coordRank, tagToC, wb)
		} else {
			wtr := s.waiting.Pop()
			wg := st.pool.get(kindWriteGo)
			wg.target, wg.offset = env.target, env.offset
			r.SendFrom(r.Rank(), wtr, tagToWriter, wg)
		}
	case kindOverallComplete:
		s.loopDone = true
	default:
		panic(fmt.Sprintf("core: SC[g%d] unexpected message kind %d", g, env.kind))
	}
}

// Step drives the sub-coordinator.
//
//repro:hotpath
func (s *scCont) Step(c *simkernel.ContProc) bool {
	st := s.st
	for {
		switch s.pc {
		case 0:
			if !st.start.WaitCont(c) {
				return false
			}
			s.pc = 1
		case 1:
			if s.loopDone && s.missingIndices == 0 {
				s.pc = 3
				continue
			}
			if !s.loopDone {
				s.signalNext()
			}
			s.pc = 2
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToSC) {
				return false
			}
		case 2:
			env := s.recv.Msg().Data.(*scMsg)
			s.handle(env)
			st.pool.put(env)
			s.pc = 1
		case 3:
			// Algorithm 2 epilogue: merge the index pieces in rank order
			// into the step's slab (so Sort takes its bucket path), sort,
			// write the local index, send it to C.
			slices.SortFunc(s.bodies, byWriter)
			lo := len(st.entries)
			for _, b := range s.bodies {
				st.entries, st.dims = iomethod.AppendEntries(st.entries, st.dims, b.writer, b.offset, st.dataOf[b.writer])
			}
			hi := len(st.entries)
			s.li = bp.LocalIndex{File: st.fileNames[s.g], Entries: st.entries[lo:hi:hi]}
			s.li.Sort()
			n, err := s.li.EncodedLen()
			if err != nil {
				panic(err)
			}
			s.encLen = n
			s.write.BeginAppend(st.files[s.g], int64(n))
			s.pc = 4
		case 4:
			if !s.write.Step(c) {
				return false
			}
			if s.write.Err() != nil {
				// The on-disk footer is lost with its target; the in-memory
				// index still travels to C, so the data stays findable.
				st.res.WriteFailures++
				s.close.BeginClose(st.files[s.g])
				s.pc = 6
			} else {
				st.res.IndexBytes += float64(s.encLen)
				// Explicit flush before close (the paper's measurement
				// protocol).
				s.flush.BeginFlush(st.files[s.g])
				s.pc = 5
			}
		case 5:
			if !s.flush.Step(c) {
				return false
			}
			s.close.BeginClose(st.files[s.g])
			s.pc = 6
		default:
			if !s.close.Step(c) {
				return false
			}
			env := st.pool.get(kindLocalIndex)
			env.group = s.g
			env.index = s.li
			s.r.SendFrom(s.r.Rank(), coordRank, tagToC, env)
			st.scDone[s.g].Done()
			return true
		}
	}
}

// cCont is the coordinator loop (Algorithm 3).
type cCont struct {
	a  *Adaptive
	st *stepState
	r  *mpisim.Rank

	pc          int
	phase       []groupPhase
	offsets     []int64   // file-end offsets, valid once complete
	targetFree  []int     // free write slots on completed targets
	deadTarget  []bool    // targets blacklisted by a failed adaptive write
	speed       []float64 // observed bandwidth per target (HistoryAware)
	idle        []int     // scratch for dispatch's idle-target scan
	cursor      int       // rotation over SCs, to spread requests
	outstanding int       // in-flight adaptive requests
	completes   int
	gathered    int
	tStart      simkernel.Time
	global      *bp.GlobalIndex
	gf          *pfs.File
	encLen      int

	recv   mpisim.RecvOp
	create pfs.CreateOp
	write  pfs.WriteOp
	flush  pfs.FlushOp
	close  pfs.CloseOp
}

// arm readies the coordinator machine for one step. A recycled machine
// keeps its per-group tables (zeroed), its dispatch scratch and its write
// and flush ops.
func (s *cCont) arm(a *Adaptive, r *mpisim.Rank, st *stepState) {
	numGroups := len(st.groups)
	*s = cCont{
		a: a, st: st, r: r,
		phase:      zeroed(s.phase, numGroups),
		offsets:    zeroed(s.offsets, numGroups),
		targetFree: zeroed(s.targetFree, numGroups),
		deadTarget: zeroed(s.deadTarget, numGroups),
		speed:      zeroed(s.speed, numGroups),
		idle:       s.idle[:0],
		write:      s.write,
		flush:      s.flush,
	}
}

// zeroed returns xs resized to n zero values, reusing its backing array
// when it is large enough.
func zeroed[T any](xs []T, n int) []T {
	if cap(xs) < n {
		return make([]T, n)
	}
	xs = xs[:n]
	clear(xs)
	return xs
}

// nextWritingSC returns the next group in writing phase, rotating, or -1.
func (s *cCont) nextWritingSC() int {
	numGroups := len(s.st.groups)
	for i := 0; i < numGroups; i++ {
		gg := (s.cursor + i) % numGroups
		if s.phase[gg] == phaseWriting {
			s.cursor = (gg + 1) % numGroups
			return gg
		}
	}
	return -1
}

// dispatch pairs idle completed targets with writing SCs ("adaptive writing
// requests are spread evenly among the sub coordinators"). Targets are
// served in scan order or — with HistoryAware — fastest-first by observed
// bandwidth.
func (s *cCont) dispatch() {
	if s.a.cfg.DisableAdaptation {
		return
	}
	s.idle = s.idle[:0]
	for t := 0; t < len(s.phase); t++ {
		if s.phase[t] == phaseComplete && s.targetFree[t] > 0 && !s.deadTarget[t] {
			s.idle = append(s.idle, t)
		}
	}
	if s.a.cfg.HistoryAware {
		sortByDesc(s.idle, s.speed)
	}
	for _, t := range s.idle {
		for s.targetFree[t] > 0 {
			sc := s.nextWritingSC()
			if sc < 0 {
				return
			}
			s.targetFree[t]--
			s.outstanding++
			env := s.st.pool.get(kindAdaptiveStart)
			env.target, env.offset = t, s.offsets[t]
			s.r.SendFrom(coordRank, s.st.groups[sc][0], tagToSC, env)
			// The offset advances only at completion; one request
			// in flight per target keeps offsets consistent.
		}
	}
}

// handle processes one protocol message. The caller recycles the envelope.
func (s *cCont) handle(env *scMsg) {
	switch env.kind {
	case kindSCComplete:
		s.phase[env.group] = phaseComplete
		s.offsets[env.group] = env.offset
		if el := (s.a.w.Kernel().Now() - s.tStart).Seconds(); el > 0 {
			s.speed[env.group] = float64(env.offset) / el
		}
		// Adaptive writes to a completed file stay serialised (one
		// request in flight per target) because the next append
		// offset is only learned from the completion report. The
		// WritersPerTarget generalisation applies to a group's own
		// file, as in the paper.
		s.targetFree[env.group] = 1
		s.completes++
		s.dispatch()
	case kindAdaptiveDone:
		s.offsets[env.target] += env.bytes
		s.targetFree[env.target]++
		s.outstanding--
		s.dispatch()
	case kindAdaptiveFailed:
		// The redirect target is dead: blacklist it (its slot is not
		// returned — nothing can land there) and redispatch the
		// requeued writer elsewhere. A dead target stays blacklisted
		// for the rest of the step; the conservative choice costs at
		// most the work it could have absorbed after reviving.
		s.deadTarget[env.target] = true
		s.outstanding--
		s.dispatch()
	case kindWritersBusy:
		// Guard against the race where the SC completed (and we
		// already marked it so) between our request and its refusal:
		// never downgrade a completed group.
		if s.phase[env.group] == phaseWriting {
			s.phase[env.group] = phaseBusy
		}
		s.targetFree[env.target]++
		s.outstanding--
		s.dispatch()
	default:
		panic(fmt.Sprintf("core: C unexpected message kind %d", env.kind))
	}
}

// Step drives the coordinator.
//
//repro:hotpath
func (s *cCont) Step(c *simkernel.ContProc) bool {
	a, st := s.a, s.st
	numGroups := len(st.groups)
	for {
		switch s.pc {
		case 0:
			if !st.start.WaitCont(c) {
				return false
			}
			s.tStart = c.Now()
			s.pc = 1
		case 1:
			if s.completes >= numGroups && s.outstanding == 0 {
				s.pc = 3
				continue
			}
			s.pc = 2
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToC) {
				return false
			}
		case 2:
			env := s.recv.Msg().Data.(*scMsg)
			s.handle(env)
			st.pool.put(env)
			s.pc = 1
		case 3:
			// Release the sub-coordinators to write their local indices.
			for g := 0; g < numGroups; g++ {
				env := st.pool.get(kindOverallComplete)
				s.r.SendFrom(coordRank, st.groups[g][0], tagToSC, env)
			}
			s.global = &bp.GlobalIndex{Step: int64(st.seq), Locals: make([]bp.LocalIndex, 0, numGroups)}
			s.pc = 4
		case 4:
			// Gather index pieces, merge into the global index, write it.
			if s.gathered < numGroups {
				s.pc = 5
				if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToC) {
					return false
				}
				continue
			}
			st.checkIndexed()
			s.global.Sort()
			st.res.Global = s.global
			if !a.cfg.WriteGlobalIndex {
				st.cDone.Done()
				return true
			}
			n, err := s.global.EncodedLen()
			if err != nil {
				panic(err)
			}
			s.encLen = n
			s.create.BeginCreate(a.fs, st.gidxName, pfs.Layout{StripeCount: 1})
			s.pc = 6
		case 5:
			env := s.recv.Msg().Data.(*scMsg)
			if env.kind != kindLocalIndex {
				panic(fmt.Sprintf("core: C expected local index, got kind %d", env.kind))
			}
			s.global.Locals = append(s.global.Locals, env.index)
			st.pool.put(env)
			s.gathered++
			s.pc = 4
		case 6:
			if !s.create.Step(c) {
				return false
			}
			if err := s.create.Err(); err != nil {
				panic(err)
			}
			s.gf = s.create.File()
			s.write.BeginWrite(s.gf, 0, int64(s.encLen))
			s.pc = 7
		case 7:
			if !s.write.Step(c) {
				return false
			}
			if s.write.Err() != nil {
				// Global index lost; the per-file indices (and res.Global)
				// survive, matching the paper's interim deployment.
				st.res.WriteFailures++
				s.close.BeginClose(s.gf)
				s.pc = 9
			} else {
				st.res.IndexBytes += float64(s.encLen)
				s.flush.BeginFlush(s.gf)
				s.pc = 8
			}
		case 8:
			if !s.flush.Step(c) {
				return false
			}
			s.close.BeginClose(s.gf)
			s.pc = 9
		default:
			if !s.close.Step(c) {
				return false
			}
			st.cDone.Done()
			return true
		}
	}
}
