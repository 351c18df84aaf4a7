package scenario

import (
	"time"

	"repro/adios"
	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The scenario executors' rank bodies, as continuation machines. The
// adios-backed bodies (campaignCont, jobAppCont) drive every transport's
// step through adios.CloseCont.

// campaignOut collects the campaign step's shared outcome (all ranks
// return the same step-result pointer).
type campaignOut struct {
	res *adios.StepResult
	err error
}

// campaignCont is the application campaign rank body: open the step, buffer
// this rank's variables, collectively close.
type campaignCont struct {
	pc       int
	io       *adios.IO
	stepName string
	perRank  func(rank int) iomethod.RankData
	out      *campaignOut
	cc       adios.CloseCont
}

//repro:hotpath
func (m *campaignCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			f := m.io.Open(r, m.stepName)
			f.WriteData(m.perRank(r.Rank()))
			f.BeginCloseCont(&m.cc)
			m.pc = 1
		default:
			if !m.cc.Step(c) {
				return false
			}
			rr, err := m.cc.Result()
			if err != nil {
				m.out.err = err
				return true
			}
			m.out.res = rr
			return true
		}
	}
}

// jobAppCont is the job-mix application body: per phase, wait for the phase
// clock, then run one collective output step.
type jobAppCont struct {
	pc, ph  int
	phases  int
	start   float64
	period  float64
	io      *adios.IO
	names   []string // per-phase step names (jobCfg.names)
	perRank func(rank int) iomethod.RankData
	errp    *error
	cc      adios.CloseCont
}

//repro:hotpath
func (m *jobAppCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.ph >= m.phases {
				return true
			}
			m.pc = 1
			if c.SleepUntil(simkernel.FromSeconds(m.start + float64(m.ph)*m.period)) {
				return false
			}
		case 1:
			f := m.io.Open(r, m.names[m.ph])
			f.WriteData(m.perRank(r.Rank()))
			f.BeginCloseCont(&m.cc)
			m.pc = 2
		default:
			if !m.cc.Step(c) {
				return false
			}
			if _, err := m.cc.Result(); err != nil {
				if *m.errp == nil {
					*m.errp = err
				}
				return true
			}
			m.ph++
			m.pc = 0
		}
	}
}

// jobMLReadCont is the job-mix training-read body: create the pre-existing
// dataset shard, then per phase wait for the clock and read it.
type jobMLReadCont struct {
	pc, ph  int
	phases  int
	start   float64
	period  float64
	fs      *pfs.FileSystem
	name    string
	ost     int
	bytes   int64
	errp    *error
	f       *pfs.File
	create  pfs.CreateOp
	read    pfs.ReadOp
	closeOp pfs.CloseOp
}

//repro:hotpath
func (m *jobMLReadCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, m.name, pfs.Layout{OSTs: []int{m.ost}})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				if *m.errp == nil {
					*m.errp = err
				}
				return true
			}
			m.f = m.create.File()
			m.pc = 2
		case 2:
			if m.ph >= m.phases {
				m.closeOp.BeginClose(m.f)
				m.pc = 5
				continue
			}
			m.pc = 3
			if c.SleepUntil(simkernel.FromSeconds(m.start + float64(m.ph)*m.period)) {
				return false
			}
		case 3:
			m.read.BeginRead(m.f, 0, m.bytes)
			m.pc = 4
		case 4:
			if !m.read.Step(c) {
				return false
			}
			m.ph++
			m.pc = 2
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			return true
		}
	}
}

// jobMDTestCont is the job-mix metadata-stress body: per phase, wait for
// the clock, then create/write/close a burst of small files.
type jobMDTestCont struct {
	pc, ph, fi int
	phases     int
	files      int
	start      float64
	period     float64
	fs         *pfs.FileSystem
	names      []string // this rank's [phase][file] names (jobCfg.names)
	rank       int
	numOSTs    int
	bytes      int64
	errp       *error
	f          *pfs.File
	create     pfs.CreateOp
	write      pfs.WriteOp
	closeOp    pfs.CloseOp
}

//repro:hotpath
func (m *jobMDTestCont) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.ph >= m.phases {
				return true
			}
			m.fi = 0
			m.pc = 1
			if c.SleepUntil(simkernel.FromSeconds(m.start + float64(m.ph)*m.period)) {
				return false
			}
		case 1:
			if m.fi >= m.files {
				m.ph++
				m.pc = 0
				continue
			}
			m.create.BeginCreate(m.fs, m.names[m.ph*m.files+m.fi],
				pfs.Layout{OSTs: []int{(m.rank + m.fi) % m.numOSTs}})
			m.pc = 2
		case 2:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				if *m.errp == nil {
					*m.errp = err
				}
				return true
			}
			m.f = m.create.File()
			m.write.BeginWrite(m.f, 0, m.bytes)
			m.pc = 3
		case 3:
			if !m.write.Step(c) {
				return false
			}
			m.closeOp.BeginClose(m.f)
			m.pc = 4
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			m.fi++
			m.pc = 1
		}
	}
}

// stormOpener is the open-storm body: an optional stagger delay, one
// create, one close, then the completion bookkeeping.
type stormOpener struct {
	pc      int
	fs      *pfs.FileSystem
	name    string
	ost     int
	stagger bool
	delay   time.Duration
	wg      *simkernel.WaitGroup
	last    *simkernel.Time
	create  pfs.CreateOp
	closeOp pfs.CloseOp
}

//repro:hotpath
func (m *stormOpener) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.pc = 1
			// With stagger enabled even the zero-delay opener schedules
			// a sleep event.
			if m.stagger {
				c.Sleep(m.delay)
				return false
			}
		case 1:
			m.create.BeginCreate(m.fs, m.name, pfs.Layout{OSTs: []int{m.ost}})
			m.pc = 2
		case 2:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				panic(err)
			}
			m.closeOp.BeginClose(m.create.File())
			m.pc = 3
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			if c.Now() > *m.last {
				*m.last = c.Now()
			}
			m.wg.Done()
			return true
		}
	}
}
