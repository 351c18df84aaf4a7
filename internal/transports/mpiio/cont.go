package mpiio

import (
	"fmt"

	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The MPI-IO collective step: buffer (instantaneous in the model — ADIOS
// buffers during the compute phase), compute collective offsets, and write
// one contiguous block per rank into the cohort's shared file,
// stripe-aligned so each rank's block maps to exactly one storage target.
// The close is collective per cohort, matching MPI_File_close semantics and
// the paper's "write, flush, and file close" timed region. One stepCont
// per rank per step drives the shared stepState; LaunchCont rank bodies
// drive it directly and WriteStep awaits it on the rank's goroutine.

// stepCont is one rank's MPI-IO collective step in flight.
type stepCont struct {
	m    *Method
	st   *stepState
	rank int
	data iomethod.RankData

	cohort, lo, hi int
	leader         bool

	pc    int
	f     *pfs.File
	total int64
	li    bp.LocalIndex
	enc   int64

	create  pfs.CreateOp
	write   pfs.WriteOp
	flush   pfs.FlushOp
	closeOp pfs.CloseOp

	res *iomethod.StepResult
	err error
}

// BeginStepCont implements iomethod.Method. It only arms the machine;
// all simulation work happens in Step. A recycled machine keeps its write
// and flush ops' scratch.
func (m *Method) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := m.getStep(stepName)
	rank := r.Rank()
	cohort := m.cohortOf(rank)
	lo, hi := m.cohortRanks(cohort)
	s := &st.machines[rank]
	*s = stepCont{
		m: m, st: st, rank: rank, data: data,
		cohort: cohort, lo: lo, hi: hi, leader: rank == lo,
		write: s.write, flush: s.flush,
	}
	return s
}

// createFailed builds the shared-create failure error off the hot path.
func createFailed(err error) error {
	return fmt.Errorf("mpiio: shared-file create failed: %v", err)
}

// Step drives the rank's participation in the collective step. Untimed
// setup: each cohort leader creates its shared file once every rank has
// registered its size, with stripe-aligned offsets. Timed phase: write the
// buffered block and flush; then each cohort leader appends its file's
// footer index and closes, and everyone joins the cohort's collective
// close.
//
//repro:hotpath
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	m, st := s.m, s.st
	for {
		switch s.pc {
		case 0:
			st.sizes[s.rank] = s.data.TotalBytes()
			st.arrivedWG.Done()
			if s.leader {
				s.pc = 1
			} else {
				s.pc = 3
			}
		case 1:
			if !st.arrivedWG.WaitCont(c) {
				return false
			}
			var stripe int64 = 1
			for i := s.lo; i < s.hi; i++ {
				if st.sizes[i] > stripe {
					stripe = st.sizes[i]
				}
			}
			var off int64
			for i := s.lo; i < s.hi; i++ {
				st.offsets[i] = off
				off += stripe
			}
			st.osts = m.appendCohortOSTs(st.osts[:0], s.cohort)
			s.create.BeginCreate(m.fs, st.fileNames[s.cohort],
				pfs.Layout{OSTs: st.osts, StripeSize: stripe})
			s.pc = 2
		case 2:
			if !s.create.Step(c) {
				return false
			}
			if err := s.create.Err(); err != nil && st.createErr == nil {
				st.createErr = err
			}
			st.files[s.cohort] = s.create.File()
			st.createdWG.Done()
			s.pc = 3
		case 3:
			if !st.createdWG.WaitCont(c) {
				return false
			}
			if st.createErr != nil {
				st.writersWG[s.cohort].Done()
				s.err = createFailed(st.createErr)
				return true
			}
			if !st.t0Set {
				st.t0 = c.Now()
				st.t0Set = true
				st.res.MDSOpenQueuePeak = m.fs.MDS.Stats.MaxQueue
			}
			s.f = st.files[s.cohort]
			st.dataOf[s.rank] = s.data
			s.total = s.data.TotalBytes()
			s.write.BeginWrite(s.f, st.offsets[s.rank], s.total)
			s.pc = 4
		case 4:
			if !s.write.Step(c) {
				return false
			}
			if werr := s.write.Err(); werr != nil {
				// The collective has no recovery path: the rank's block
				// is lost, but the cohort bookkeeping must still complete
				// or every sibling deadlocks in the collective close.
				s.err = werr
				st.res.WriteFailures++
				st.dataOf[s.rank] = iomethod.RankData{}
				s.pc = 6
			} else {
				st.res.TotalBytes += float64(s.total)
				if !m.cfg.NoFlush {
					s.flush.BeginFlush(s.f)
					s.pc = 5
				} else {
					s.pc = 6
				}
			}
		case 5:
			if !s.flush.Step(c) {
				return false
			}
			s.pc = 6
		case 6:
			st.res.WriterTimes[s.rank] = (c.Now() - st.t0).Seconds()
			st.writersWG[s.cohort].Done()
			if s.leader {
				s.pc = 7
			} else {
				s.pc = 12
			}
		case 7:
			if !st.writersWG[s.cohort].WaitCont(c) {
				return false
			}
			li := bp.LocalIndex{File: st.fileNames[s.cohort]}
			n, nd := 0, 0
			for i := s.lo; i < s.hi; i++ {
				n += len(st.dataOf[i].Vars)
				for _, v := range st.dataOf[i].Vars {
					nd += len(v.Dims)
				}
			}
			li.Entries = make([]bp.VarEntry, 0, n)
			dims := make([]uint64, 0, nd)
			for i := s.lo; i < s.hi; i++ {
				li.Entries, dims = iomethod.AppendEntries(li.Entries, dims, i, st.offsets[i], st.dataOf[i])
			}
			li.Sort()
			encLen, err := li.EncodedLen()
			if err != nil {
				s.err = err
				return true
			}
			s.li = li
			s.enc = int64(encLen)
			s.write.BeginAppend(s.f, s.enc)
			s.pc = 8
		case 8:
			if !s.write.Step(c) {
				return false
			}
			if aerr := s.write.Err(); aerr != nil {
				// Footer lost; still close so the cohort's collective
				// completes.
				if s.err == nil {
					s.err = aerr
				}
				s.pc = 10
			} else {
				st.res.IndexBytes += float64(s.enc)
				if !m.cfg.NoFlush {
					s.flush.BeginFlush(s.f)
					s.pc = 9
				} else {
					s.pc = 10
				}
			}
		case 9:
			if !s.flush.Step(c) {
				return false
			}
			s.pc = 10
		case 10:
			s.closeOp.BeginClose(s.f)
			s.pc = 11
		case 11:
			if !s.closeOp.Step(c) {
				return false
			}
			st.locals[s.cohort] = s.li
			st.indexed++
			if st.indexed == m.cfg.SplitFiles {
				g := &bp.GlobalIndex{Step: int64(st.seq), Locals: append([]bp.LocalIndex(nil), st.locals...)} //repro:allow hotpath copy idiom: appends into a fresh nil slice, once per step
				g.Sort()
				st.res.Global = g
			}
			st.closedWG[s.cohort].Done()
			s.pc = 12
		default:
			if !st.closedWG[s.cohort].WaitCont(c) {
				return false
			}
			if el := (c.Now() - st.t0).Seconds(); el > st.res.Elapsed {
				st.res.Elapsed = el
			}
			s.res = st.res
			st.returned++
			if st.returned == m.w.Size() {
				m.finish(st)
			}
			return true
		}
	}
}

// Result implements iomethod.StepCont.
func (s *stepCont) Result() (*iomethod.StepResult, error) { return s.res, s.err }
