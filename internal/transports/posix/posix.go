// Package posix implements the simplest ADIOS transport: one file per
// process, POSIX-style, each file striped to a single storage target chosen
// round-robin. It is the organisation IOR uses in the paper's Section II
// measurements and serves as a second baseline: free of shared-file limits
// but entirely unmanaged — every rank writes immediately, so a popular
// target serves all its writers at once and slow targets stall their ranks.
package posix

import (
	"fmt"

	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Config tunes the POSIX transport.
type Config struct {
	// OSTs are the storage targets to spread files across; empty means all.
	OSTs []int
	// NoFlush drops the explicit pre-close flush from the timed region.
	NoFlush bool
}

// Method is the POSIX transport bound to a world and file system.
type Method struct {
	w   *mpisim.World
	fs  *pfs.FileSystem
	cfg Config

	steps     map[string]*stepState
	stepCount int
}

type stepState struct {
	seq      int
	res      *iomethod.StepResult
	setupWG  *simkernel.WaitGroup
	t0       simkernel.Time
	t0Set    bool
	returned int
	locals   []bp.LocalIndex
	machines []stepCont // per rank, one backing array for the whole step
}

// New builds the POSIX method.
func New(w *mpisim.World, fs *pfs.FileSystem, cfg Config) (*Method, error) {
	if len(cfg.OSTs) == 0 {
		cfg.OSTs = make([]int, len(fs.OSTs))
		for i := range cfg.OSTs {
			cfg.OSTs[i] = i
		}
	}
	for _, o := range cfg.OSTs {
		if o < 0 || o >= len(fs.OSTs) {
			return nil, fmt.Errorf("posix: OST %d out of range", o)
		}
	}
	return &Method{w: w, fs: fs, cfg: cfg, steps: make(map[string]*stepState)}, nil
}

// Name implements iomethod.Method.
func (m *Method) Name() string { return "POSIX" }

func (m *Method) step(stepName string) *stepState {
	st, ok := m.steps[stepName]
	if !ok {
		W := m.w.Size()
		k := m.w.Kernel()
		st = &stepState{
			seq:     m.stepCount,
			setupWG: simkernel.NewWaitGroup(k),
			res: &iomethod.StepResult{
				WriterTimes: make([]float64, W),
				Files:       W,
			},
			locals:   make([]bp.LocalIndex, W),
			machines: make([]stepCont, W),
		}
		m.stepCount++
		st.setupWG.Add(W)
		m.steps[stepName] = st
	}
	return st
}

// WriteStep implements iomethod.Method by running the rank's step machine
// on the rank's goroutine.
func (m *Method) WriteStep(r *mpisim.Rank, stepName string, data iomethod.RankData) (*iomethod.StepResult, error) {
	sc := m.BeginStepCont(r, stepName, data)
	r.Proc().Await(sc.Step)
	return sc.Result()
}

// BeginStepCont implements iomethod.Method. It only arms the machine; all
// simulation work happens in Step.
func (m *Method) BeginStepCont(r *mpisim.Rank, stepName string, data iomethod.RankData) iomethod.StepCont {
	st := m.step(stepName)
	rank := r.Rank()
	s := &st.machines[rank]
	*s = stepCont{
		m: m, st: st, rank: rank, data: data,
		stepName: stepName,
		name:     fmt.Sprintf("%s.r%06d.bp", stepName, rank),
	}
	return s
}

// stepCont is one rank's POSIX step in flight: create its own file
// (untimed), barrier, then write + local index + flush + close (timed).
type stepCont struct {
	m        *Method
	st       *stepState
	rank     int
	data     iomethod.RankData
	stepName string
	name     string

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

// Step drives the rank's step. A failed write or index append still
// closes the file and completes the step's bookkeeping, so the other ranks
// finish; POSIX has no recovery, so the rank's output is lost.
//
//repro:hotpath
func (s *stepCont) Step(c *simkernel.ContProc) bool {
	m, st := s.m, s.st
	for {
		switch s.pc {
		case 0:
			target := m.cfg.OSTs[s.rank%len(m.cfg.OSTs)]
			s.create.BeginCreate(m.fs, s.name, pfs.Layout{OSTs: []int{target}})
			s.pc = 1
		case 1:
			if !s.create.Step(c) {
				return false
			}
			if s.err = s.create.Err(); s.err != nil {
				return true
			}
			s.f = s.create.File()
			st.setupWG.Done()
			s.pc = 2
		case 2:
			if !st.setupWG.WaitCont(c) {
				return false
			}
			if !st.t0Set {
				st.t0 = c.Now()
				st.t0Set = true
			}
			s.li.Entries, s.total = iomethod.BuildEntries(s.rank, 0, s.data)
			s.write.BeginWrite(s.f, 0, s.total)
			s.pc = 3
		case 3:
			if !s.write.Step(c) {
				return false
			}
			if s.err = s.write.Err(); s.err != nil {
				s.pc = 6
				continue
			}
			s.li.File = s.name
			s.li.Sort()
			encLen, err := s.li.EncodedLen()
			if err != nil {
				s.err = err
				return true
			}
			s.enc = int64(encLen)
			s.write.BeginAppend(s.f, s.enc)
			s.pc = 4
		case 4:
			if !s.write.Step(c) {
				return false
			}
			s.pc = 6
			if s.err = s.write.Err(); s.err == nil {
				st.res.IndexBytes += float64(s.enc)
				st.res.TotalBytes += float64(s.total)
				st.locals[s.rank] = s.li
				if !m.cfg.NoFlush {
					s.flush.BeginFlush(s.f)
					s.pc = 5
				}
			}
		case 5:
			if !s.flush.Step(c) {
				return false
			}
			s.pc = 6
		case 6:
			s.closeOp.BeginClose(s.f)
			s.pc = 7
		default:
			if !s.closeOp.Step(c) {
				return false
			}
			el := (c.Now() - st.t0).Seconds()
			st.res.WriterTimes[s.rank] = el
			if s.err != nil {
				st.res.WriteFailures++
			}
			if el > st.res.Elapsed {
				st.res.Elapsed = el
			}
			st.returned++
			if st.returned == m.w.Size() {
				g := &bp.GlobalIndex{Step: int64(st.seq), Locals: st.locals}
				g.Sort()
				st.res.Global = g
				delete(m.steps, s.stepName)
			}
			s.res = st.res
			return true
		}
	}
}

// Result implements iomethod.StepCont.
func (s *stepCont) Result() (*iomethod.StepResult, error) { return s.res, s.err }
