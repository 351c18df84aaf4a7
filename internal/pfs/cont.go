package pfs

import (
	"fmt"

	"repro/internal/simkernel"
)

// The file system's client operations. Each one (MDS.Op, OST.Write/Flush,
// FileSystem.Create/Open, File.WriteAt/Append/Flush/ReadAt/Close) is a
// state machine here that a simkernel.Cont body drives with repeated Step
// calls: Step returns true when the operation has completed, or arranges a
// wakeup, marks the process parked, and returns false — the body must then
// yield with its program counter advanced past the op (advance style; see
// simkernel/sync.go), because wakeups re-enter Step to continue the same
// operation, never to restart it. The blocking methods in fs.go, ost.go and
// mds.go are simkernel.Proc.Await adaptors over these machines, so both
// engines run the same body. The op values are designed for reuse: embed
// one per client, call Begin* to arm it, and its scratch (chunk lists, OST
// lists) is recycled across operations.

// mdsOp is one metadata operation in flight: queueing at the service
// resource, then the lognormal service time.
type mdsOp struct {
	pc int
	m  *MDS
}

// step drives the operation. The service draw happens after the slot
// grant, so queue order determines draw order.
//
//repro:hotpath
func (s *mdsOp) step(c *simkernel.ContProc) bool {
	m := s.m
	for {
		switch s.pc {
		case 0:
			m.accountOp(c.Job())
			s.pc = 1
			if m.stallUntil > c.Now() {
				m.Stats.StallSeconds += (m.stallUntil - c.Now()).Seconds()
				c.SleepUntil(m.stallUntil)
				return false
			}
		case 1:
			s.pc = 2
			if !m.res.AcquireCont(c) {
				return false
			}
		case 2:
			svc := m.src.LognormalMeanCV(m.mean, m.cv)
			m.Stats.OpsServed++
			m.Stats.TotalService += svc
			if q := m.res.QueueLen(); q > m.Stats.MaxQueue {
				m.Stats.MaxQueue = q
			}
			s.pc = 3
			c.SleepSeconds(svc)
			return false
		default:
			m.res.Release()
			s.pc = 0
			return true
		}
	}
}

// OSTWriteOp is one OST write in flight (OST.Write): the fixed
// per-operation latency, then ingest until the last byte is accepted — or,
// against a Dead target, the configured timeout followed by ErrTargetDown
// in Err. File writes drive one per chunk; a client that streams straight
// to a target (the artificial interferers) drives it directly.
type OSTWriteOp struct {
	pc    int
	o     *OST
	bytes float64
	err   error
}

// BeginWrite arms the op for a write of bytes to o; drive it with Step
// until true.
func (s *OSTWriteOp) BeginWrite(o *OST, bytes float64) {
	s.pc = 0
	s.o = o
	s.bytes = bytes
	s.err = nil
}

// Step drives the write.
//
//repro:hotpath
func (s *OSTWriteOp) Step(c *simkernel.ContProc) bool {
	for {
		switch s.pc {
		case 0:
			s.pc = 1
			if s.o.cfg.WriteLatency > 0 {
				c.Sleep(s.o.cfg.WriteLatency)
				return false
			}
		case 1:
			if s.o.health == Dead {
				s.pc = 3
				c.SleepSeconds(s.o.cfg.DeadTimeout)
				return false
			}
			if s.bytes <= 0 {
				s.pc = 0
				return true
			}
			s.o.accountWrite(c.Job(), s.bytes)
			s.o.StartWrite(s.bytes, 0, c.Waker())
			s.pc = 2
			c.Pause()
			return false
		case 2:
			s.pc = 0
			return true
		default:
			s.o.Stats.WritesFailed++
			s.err = s.o.downErr
			s.pc = 0
			return true
		}
	}
}

// Err returns the write error, if any; valid after Step returned true.
func (s *OSTWriteOp) Err() error { return s.err }

// ostFlush is one OST flush in flight: wait until every byte ingested
// before the call has drained.
type ostFlush struct {
	pc int
	o  *OST
}

func (s *ostFlush) begin(o *OST) {
	s.pc = 0
	s.o = o
}

//repro:hotpath
func (s *ostFlush) step(c *simkernel.ContProc) bool {
	switch s.pc {
	case 0:
		o := s.o
		o.advance()
		if o.cacheLevel <= completionEps {
			return true
		}
		o.waiters.Push(flushWaiter{watermark: o.ingestedTotal, wake: c.Waker()})
		o.recompute()
		s.pc = 1
		c.Pause()
		return false
	default:
		s.pc = 0
		return true
	}
}

// CreateOp is a metadata create in flight (FileSystem.Create). After Step
// returns true, File/Err hold the result.
type CreateOp struct {
	fs     *FileSystem
	name   string
	osts   []int
	stripe int64
	mds    mdsOp
	file   *File
	err    error
}

// BeginCreate arms the op; drive it with Step until true.
func (op *CreateOp) BeginCreate(fs *FileSystem, name string, layout Layout) {
	op.fs = fs
	op.name = name
	op.file = nil
	op.mds = mdsOp{m: fs.MDS}
	// The layout resolves at arm time, before the MDS queueing, consuming
	// the round-robin allocation cursor in call order.
	op.osts, op.stripe, op.err = fs.resolveLayout(layout)
}

// Step drives the create. On a layout error it completes immediately with
// Err set and no MDS traffic.
//
//repro:hotpath
func (op *CreateOp) Step(c *simkernel.ContProc) bool {
	if op.err != nil {
		return true
	}
	if !op.mds.step(c) {
		return false
	}
	f := op.fs.newFile()
	f.Name, f.osts, f.stripe = op.name, op.osts, op.stripe
	f.touched = &f.set
	op.fs.files[op.name] = f
	op.file = f
	return true
}

// File returns the created handle (nil on error); valid after Step
// returned true.
func (op *CreateOp) File() *File { return op.file }

// Err returns the create error, if any; valid after Step returned true.
func (op *CreateOp) Err() error { return op.err }

// OpenOp is a metadata open in flight (FileSystem.Open).
type OpenOp struct {
	fs    *FileSystem
	name  string
	found *File
	mds   mdsOp
	file  *File
	err   error
}

// BeginOpen arms the op; drive it with Step until true.
func (op *OpenOp) BeginOpen(fs *FileSystem, name string) {
	op.fs = fs
	op.name = name
	op.found = fs.files[name]
	op.mds = mdsOp{m: fs.MDS}
	op.file = nil
	op.err = nil
}

// Step drives the open. Failed lookups still cost the MDS; the handle copy
// is taken after the metadata op completes, and shares the found handle's
// touched set.
//
//repro:hotpath
func (op *OpenOp) Step(c *simkernel.ContProc) bool {
	if !op.mds.step(c) {
		return false
	}
	if op.found == nil {
		op.err = noSuchFile(op.name)
		return true
	}
	found, h := op.found, op.fs.newFile()
	h.Name, h.osts, h.stripe, h.size, h.touched = found.Name, found.osts, found.stripe, found.size, found.touched
	op.file = h
	return true
}

// noSuchFile builds the open-failure error off the hot path.
func noSuchFile(name string) error {
	return fmt.Errorf("pfs: no such file %q", name)
}

// File returns the opened handle (nil on error); valid after Step
// returned true.
func (op *OpenOp) File() *File { return op.file }

// Err returns the open error, if any; valid after Step returned true.
func (op *OpenOp) Err() error { return op.err }

// WriteOp is a striped write in flight (File.WriteAt and File.Append):
// per-OST chunks issued sequentially, each a latency-plus-ingest machine.
// A chunk against a Dead target sets Err to ErrTargetDown after the
// configured timeout and abandons the remaining chunks.
type WriteOp struct {
	f       *File
	offset  int64
	length  int64
	chunks  []chunk
	i       int
	started bool
	w       OSTWriteOp
	err     error
}

// BeginWrite arms the op for a write of length bytes at offset; drive it
// with Step until true. The chunk list reuses the op's scratch.
func (op *WriteOp) BeginWrite(f *File, offset, length int64) {
	if f.closed {
		panic(fmt.Sprintf("pfs: write to closed file %q", f.Name))
	}
	if length < 0 {
		panic("pfs: negative write length")
	}
	op.f = f
	op.offset = offset
	op.length = length
	op.chunks = f.appendChunks(op.chunks[:0], offset, length)
	op.i = 0
	op.started = false
	op.err = nil
}

// BeginAppend arms the op for a write at the handle's current end and
// returns the chosen offset.
func (op *WriteOp) BeginAppend(f *File, length int64) int64 {
	off := f.size
	op.BeginWrite(f, off, length)
	return off
}

// Step drives the write: chunks issue sequentially (a single client
// stream), and the handle/master sizes update after the last byte is
// accepted.
//
//repro:hotpath
func (op *WriteOp) Step(c *simkernel.ContProc) bool {
	f := op.f
	for op.i < len(op.chunks) {
		if !op.started {
			ch := op.chunks[op.i]
			f.touched.add(ch.ost)
			op.w.BeginWrite(f.fs.OSTs[ch.ost], float64(ch.bytes))
			op.started = true
		}
		if !op.w.Step(c) {
			return false
		}
		if op.w.err != nil {
			op.err = op.w.err
			return true
		}
		op.started = false
		op.i++
	}
	if end := op.offset + op.length; end > f.size {
		f.size = end
	}
	if master := f.fs.files[f.Name]; master != nil && f.size > master.size {
		master.size = f.size
	}
	return true
}

// Err returns the write error, if any; valid after Step returned true.
func (op *WriteOp) Err() error { return op.err }

// FlushOp is a flush in flight (File.Flush): the targets touched when it
// began, waited on sequentially in ascending order.
type FlushOp struct {
	f       *File
	osts    []int
	i       int
	started bool
	w       ostFlush
}

// BeginFlush arms the op; drive it with Step until true. The OST list
// reuses the op's scratch.
func (op *FlushOp) BeginFlush(f *File) {
	op.f = f
	op.osts = append(op.osts[:0], *f.touched...)
	op.i = 0
	op.started = false
}

// Step drives the flush.
//
//repro:hotpath
func (op *FlushOp) Step(c *simkernel.ContProc) bool {
	for op.i < len(op.osts) {
		if !op.started {
			op.w.begin(op.f.fs.OSTs[op.osts[op.i]])
			op.started = true
		}
		if !op.w.step(c) {
			return false
		}
		op.started = false
		op.i++
	}
	return true
}

// ReadOp is a read in flight (File.ReadAt): per chunk, the share-based
// rate is fixed at issue time — before the latency sleep — then latency
// plus transfer.
type ReadOp struct {
	pc     int
	f      *File
	chunks []chunk
	i      int
	rate   float64
	err    error
}

// BeginRead arms the op; drive it with Step until true. The chunk list
// reuses the op's scratch.
func (op *ReadOp) BeginRead(f *File, offset, length int64) {
	op.pc = 0
	op.f = f
	op.chunks = f.appendChunks(op.chunks[:0], offset, length)
	op.i = 0
	op.err = nil
}

// Step drives the read.
//
//repro:hotpath
func (op *ReadOp) Step(c *simkernel.ContProc) bool {
	f := op.f
	for op.i < len(op.chunks) {
		ch := op.chunks[op.i]
		switch op.pc {
		case 0:
			o := f.fs.OSTs[ch.ost]
			o.accountRead(c.Job(), float64(ch.bytes))
			if o.health == Dead {
				op.pc = 3
				c.Sleep(f.fs.Cfg.WriteLatency)
				return false
			}
			streams := o.ActiveFlows() + o.ExternalStreams() + 1
			rate := f.fs.Cfg.DiskBW * f.fs.Cfg.DiskEff.Eval(streams) * o.SlowFactor() * o.HealthFactor() / float64(streams)
			if cap := f.fs.Cfg.ClientCap; rate > cap {
				rate = cap
			}
			op.rate = rate
			op.pc = 1
			c.Sleep(f.fs.Cfg.WriteLatency)
			return false
		case 1:
			op.pc = 2
			c.SleepSeconds(float64(ch.bytes) / op.rate)
			return false
		case 2:
			op.pc = 0
			op.i++
		case 3:
			op.pc = 4
			c.SleepSeconds(f.fs.Cfg.DeadTimeout)
			return false
		default:
			o := f.fs.OSTs[ch.ost]
			o.Stats.ReadsFailed++
			op.err = o.downErr
			op.pc = 0
			return true
		}
	}
	return true
}

// Err returns the read error, if any; valid after Step returned true.
func (op *ReadOp) Err() error { return op.err }

// CloseOp is a metadata close in flight (File.Close). A handle already
// closed completes inline with no MDS traffic.
type CloseOp struct {
	f    *File
	skip bool
	mds  mdsOp
}

// BeginClose arms the op; drive it with Step until true.
func (op *CloseOp) BeginClose(f *File) {
	op.f = f
	op.mds = mdsOp{m: f.fs.MDS}
	op.skip = f.closed
	if !op.skip {
		f.closed = true
	}
}

// Step drives the close.
//
//repro:hotpath
func (op *CloseOp) Step(c *simkernel.ContProc) bool {
	if op.skip {
		return true
	}
	return op.mds.step(c)
}
