package core

import (
	"time"

	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The adaptive collective step: the setup phase, the writer role
// (Algorithm 1) and the join bookkeeping around it run as one
// run-to-completion state machine. LaunchCont rank bodies drive it
// directly; WriteStep awaits it on the rank's goroutine. The
// sub-coordinator (Algorithm 2) and coordinator (Algorithm 3) pumps are
// continuation machines too (pump.go), spawned from inside this one.

// stepCont is one rank's adaptive collective step in flight.
type stepCont struct {
	a    *Adaptive
	st   *stepState
	r    *mpisim.Rank
	rank int
	g    int
	isSC bool
	isC  bool
	data iomethod.RankData

	pc     int
	total  int64
	target int
	offset int64

	create pfs.CreateOp
	write  pfs.WriteOp
	recv   mpisim.RecvOp

	res *iomethod.StepResult
	err error
}

// BeginStepCont implements iomethod.Method. It only arms the machine;
// all simulation work happens in Step. A recycled machine keeps its write
// op's chunk scratch.
func (a *Adaptive) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := a.getStep(stepName)
	rank := r.Rank()
	g := st.groupOf[rank]
	s := &st.machines[rank]
	*s = stepCont{
		a: a, st: st, r: r, rank: rank, g: g,
		isSC: st.groups[g][0] == rank, isC: rank == 0,
		data:  data,
		write: s.write,
	}
	return s
}

// Step drives the rank's participation in the collective step.
//
// Untimed setup: SCs create the group files (optionally staggered to spare
// the metadata server), then everyone synchronises. Timed phase: the SC
// and C ranks spawn their pumps, and every rank plays the writer role,
// Algorithm 1: wait for (target, offset); write; report completion to the
// triggering SC (and the target SC if different); ship the index to the
// target SC. A write abandoned with ErrTargetDown is reported to the
// triggering SC instead (which requeues this writer for another
// assignment) and the writer goes back to waiting — it finishes only when
// a write lands. Finally the rank joins its own pumps and records the
// step's overall span.
//
//repro:hotpath
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	a, st := s.a, s.st
	for {
		switch s.pc {
		case 0:
			st.dataOf[s.rank] = s.data
			s.pc = 1
			if s.isSC && a.cfg.StaggerOpens > 0 {
				c.Sleep(time.Duration(s.g) * a.cfg.StaggerOpens)
				return false
			}
		case 1:
			if s.isSC {
				s.create.BeginCreate(a.fs, st.fileNames[s.g],
					pfs.Layout{OSTs: []int{a.cfg.OSTs[s.g%len(a.cfg.OSTs)]}})
				s.pc = 2
			} else {
				s.pc = 3
			}
		case 2:
			if !s.create.Step(c) {
				return false
			}
			if err := s.create.Err(); err != nil {
				s.err = err
				return true
			}
			st.files[s.g] = s.create.File()
			s.pc = 3
		case 3:
			st.setupDone.Done()
			s.pc = 4
		case 4:
			if !st.setupDone.WaitCont(c) {
				return false
			}
			if !st.t0Set {
				st.t0 = c.Now()
				st.t0Set = true
				st.res.MDSOpenQueuePeak = a.fs.MDS.Stats.MaxQueue
				st.sizeIndex()
				st.start.Done()
			}

			if s.isSC {
				st.scDone[s.g].Add(1)
				a.spawnSC(s.r, st, s.g)
			}
			if s.isC {
				st.cDone.Add(1)
				a.spawnC(s.r, st)
			}

			// Writer role (Algorithm 1), continuation form.
			s.pc = 5
			if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToWriter) {
				return false
			}
		case 5:
			env := s.recv.Msg().Data.(*scMsg)
			s.total = s.data.TotalBytes()
			s.target = env.target
			s.offset = env.offset
			st.pool.put(env)
			s.write.BeginWrite(st.files[s.target], s.offset, s.total)
			s.pc = 6
		case 6:
			if !s.write.Step(c) {
				return false
			}
			if s.write.Err() != nil {
				// Target down: report to the triggering SC (which requeues
				// this writer) and go back to waiting for an assignment.
				st.res.WriteFailures++
				fl := st.pool.get(kindWriteFailed)
				fl.writer, fl.source, fl.target = s.rank, s.g, s.target
				s.r.Send(st.groups[s.g][0], tagToSC, fl)
				s.pc = 5
				if !s.r.RecvCont(&s.recv, c, mpisim.AnySource, tagToWriter) {
					return false
				}
				continue
			}
			st.res.WriterTimes[s.rank] = (c.Now() - st.t0).Seconds()
			st.res.TotalBytes += float64(s.total)
			if s.target != s.g {
				st.res.AdaptiveWrites++
			}
			triggeringSC := st.groups[s.g][0]
			targetSC := st.groups[s.target][0]
			done := st.pool.get(kindWriteComplete)
			done.writer, done.source, done.target, done.bytes = s.rank, s.g, s.target, s.total
			s.r.Send(triggeringSC, tagToSC, done)
			if targetSC != triggeringSC {
				// Each in-flight message owns its envelope (the receiver
				// recycles it), so the fan-out is two envelopes, freed
				// independently by their receivers.
				done2 := st.pool.get(kindWriteComplete)
				done2.writer, done2.source, done2.target, done2.bytes = s.rank, s.g, s.target, s.total
				s.r.Send(targetSC, tagToSC, done2)
			}
			// The index travels separately and after the data, so its
			// transfer overlaps the next writer's data (Section III-B.1).
			ib := st.pool.get(kindIndexBody)
			ib.writer, ib.offset = s.rank, s.offset
			s.r.Send(targetSC, tagToSC, ib)
			s.pc = 7
		case 7:
			if s.isSC && !st.scDone[s.g].WaitCont(c) {
				return false
			}
			s.pc = 8
		default:
			if s.isC && !st.cDone.WaitCont(c) {
				return false
			}
			if el := (c.Now() - st.t0).Seconds(); el > st.res.Elapsed {
				st.res.Elapsed = el
			}
			s.res = st.res
			st.returned++
			if st.returned == a.w.Size() {
				a.finish(st)
			}
			return true
		}
	}
}

// Result implements iomethod.StepCont.
func (s *stepCont) Result() (*iomethod.StepResult, error) { return s.res, s.err }
