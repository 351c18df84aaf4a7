package ior

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The IOR writer body, as a continuation machine.

// iorShared carries the shared-file handle from writer 0 to the rest of a
// SharedFile-mode run. Writer 0 creates the file before its ready.Done();
// the start signal fires only after every writer is ready, so the handle
// is visible to all writers by the time the timed region begins.
type iorShared struct {
	f *pfs.File
}

// iorWriter is one writer's state machine: create (untimed), barrier, then
// the timed write/flush region, and the collective bookkeeping.
type iorWriter struct {
	pc  int
	run *Run
	i   int

	fileName string
	layout   pfs.Layout
	doCreate bool
	offset   int64
	shared   *iorShared

	ready *simkernel.WaitGroup
	start *simkernel.Signal

	f  *pfs.File
	t0 simkernel.Time

	create  pfs.CreateOp
	write   pfs.WriteOp
	flushOp pfs.FlushOp
	closeOp pfs.CloseOp
}

//repro:hotpath
func (m *iorWriter) Step(c *simkernel.ContProc) bool {
	cfg := &m.run.cfg
	for {
		switch m.pc {
		case 0:
			if m.doCreate {
				m.create.BeginCreate(m.run.fs, m.fileName, m.layout)
				m.pc = 1
			} else {
				m.pc = 2
			}
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				panic(err)
			}
			if cfg.Mode == SharedFile {
				m.shared.f = m.create.File()
			} else {
				m.f = m.create.File()
			}
			m.pc = 2
		case 2:
			m.ready.Done()
			m.pc = 3
		case 3:
			if !m.start.WaitCont(c) {
				return false
			}
			if cfg.Mode == SharedFile {
				m.f = m.shared.f
			}
			m.t0 = c.Now()
			m.write.BeginWrite(m.f, m.offset, int64(cfg.BytesPerWriter))
			m.pc = 4
		case 4:
			if !m.write.Step(c) {
				return false
			}
			if m.write.Err() != nil {
				// Target down: this writer's bytes are lost; it still
				// closes and joins so the run completes.
				m.run.result.FailedWriters++
				m.pc = 6
			} else if cfg.Flush {
				m.flushOp.BeginFlush(m.f)
				m.pc = 5
			} else {
				m.run.result.TotalBytes += cfg.BytesPerWriter
				m.pc = 6
			}
		case 5:
			if !m.flushOp.Step(c) {
				return false
			}
			m.run.result.TotalBytes += cfg.BytesPerWriter
			m.pc = 6
		case 6:
			m.run.result.WriterTimes[m.i] = (c.Now() - m.t0).Seconds()
			m.closeOp.BeginClose(m.f)
			m.pc = 7
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			m.run.done.Done()
			return true
		}
	}
}

// launchWriters spawns the writers. File names and layouts are resolved
// here, off the hot path. In FilePerProcess mode writers split evenly
// across targets: writer i uses osts[i % len(osts)].
func launchWriters(fs *pfs.FileSystem, run *Run, osts []int,
	ready *simkernel.WaitGroup, start *simkernel.Signal) {
	cfg := run.cfg
	shared := &iorShared{}
	for i := 0; i < cfg.Writers; i++ {
		w := &iorWriter{
			run:    run,
			i:      i,
			shared: shared,
			ready:  ready,
			start:  start,
		}
		switch cfg.Mode {
		case FilePerProcess:
			w.doCreate = true
			w.fileName = fmt.Sprintf("ior%s.%06d", cfg.Tag, i)
			w.layout = pfs.Layout{OSTs: []int{osts[i%len(osts)]}}
		case SharedFile:
			if i == 0 {
				w.doCreate = true
				w.fileName = "ior" + cfg.Tag + ".shared"
				w.layout = pfs.Layout{OSTs: osts}
			}
			w.offset = int64(i) * int64(cfg.BytesPerWriter)
		}
		fs.K.SpawnCont(fmt.Sprintf("ior%s-w%d", cfg.Tag, i), w)
	}
}
