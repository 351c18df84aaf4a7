package pfs

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/simkernel"
)

// The shim pin at the pfs level: the same client workload — create, two
// strided writes, flush, read, close, then reopen and read through a fresh
// handle — once on goroutine clients calling the blocking methods (each a
// Proc.Await adaptor over its op) and once on continuation clients driving
// the ops in cont.go directly, against identically seeded file systems,
// must produce an identical time-stamped log and identical server-side
// statistics. The continuation side also covers op reuse across sequential
// calls.

func pfsContTestConfig() Config {
	return Config{NumOSTs: 6, Seed: 7}
}

func runPFSClientsGoroutine(n int) []string {
	k := simkernel.New()
	fs := MustNew(k, pfsContTestConfig())
	var log []string
	add := func(who, what string) {
		log = append(log, fmt.Sprintf("%v %s %s", k.Now(), who, what))
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		k.SpawnJob(name, i+1, func(p *simkernel.Proc) {
			f, err := fs.Create(p, name, Layout{StripeCount: 2})
			if err != nil {
				panic(err)
			}
			add(name, "created")
			f.WriteAt(p, 0, 3*(1<<20))
			f.WriteAt(p, 3*(1<<20), (1 << 20))
			f.Flush(p)
			add(name, "flushed")
			f.ReadAt(p, 0, (1 << 20))
			f.Close(p)
			add(name, "closed")
			h, err := fs.Open(p, name)
			if err != nil {
				panic(err)
			}
			h.ReadAt(p, (1 << 20), (1 << 20))
			h.Close(p)
			add(name, fmt.Sprintf("reopened size=%d", h.Size()))
		})
	}
	k.Run()
	log = append(log, fmt.Sprintf("ingested=%.3f drained=%.3f mdsops=%d",
		fs.TotalBytesIngested(), fs.TotalBytesDrained(), fs.MDS.Stats.OpsServed))
	k.Shutdown()
	return log
}

// pfsClientCont is the continuation rendition of the client body above.
type pfsClientCont struct {
	pc   int
	fs   *FileSystem
	name string
	add  func(who, what string)

	create  CreateOp
	open    OpenOp
	write   WriteOp
	flush   FlushOp
	read    ReadOp
	closeOp CloseOp
	f       *File
}

func (m *pfsClientCont) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, m.name, Layout{StripeCount: 2})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if m.create.Err() != nil {
				panic(m.create.Err())
			}
			m.f = m.create.File()
			m.add(m.name, "created")
			m.write.BeginWrite(m.f, 0, 3*(1<<20))
			m.pc = 2
		case 2:
			if !m.write.Step(c) {
				return false
			}
			m.write.BeginWrite(m.f, 3*(1<<20), (1 << 20))
			m.pc = 3
		case 3:
			if !m.write.Step(c) {
				return false
			}
			m.flush.BeginFlush(m.f)
			m.pc = 4
		case 4:
			if !m.flush.Step(c) {
				return false
			}
			m.add(m.name, "flushed")
			m.read.BeginRead(m.f, 0, (1 << 20))
			m.pc = 5
		case 5:
			if !m.read.Step(c) {
				return false
			}
			m.closeOp.BeginClose(m.f)
			m.pc = 6
		case 6:
			if !m.closeOp.Step(c) {
				return false
			}
			m.add(m.name, "closed")
			m.open.BeginOpen(m.fs, m.name)
			m.pc = 7
		case 7:
			if !m.open.Step(c) {
				return false
			}
			if m.open.Err() != nil {
				panic(m.open.Err())
			}
			m.f = m.open.File()
			m.read.BeginRead(m.f, (1 << 20), (1 << 20))
			m.pc = 8
		case 8:
			if !m.read.Step(c) {
				return false
			}
			m.closeOp.BeginClose(m.f)
			m.pc = 9
		case 9:
			if !m.closeOp.Step(c) {
				return false
			}
			m.add(m.name, fmt.Sprintf("reopened size=%d", m.f.Size()))
			return true
		}
	}
}

func runPFSClientsCont(n int) []string {
	k := simkernel.New()
	fs := MustNew(k, pfsContTestConfig())
	var log []string
	add := func(who, what string) {
		log = append(log, fmt.Sprintf("%v %s %s", k.Now(), who, what))
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("f%d", i)
		k.SpawnContJob(name, i+1, &pfsClientCont{fs: fs, name: name, add: add})
	}
	k.Run()
	log = append(log, fmt.Sprintf("ingested=%.3f drained=%.3f mdsops=%d",
		fs.TotalBytesIngested(), fs.TotalBytesDrained(), fs.MDS.Stats.OpsServed))
	k.Shutdown()
	return log
}

func TestContClientMatchesGoroutine(t *testing.T) {
	for _, n := range []int{1, 3, 12} {
		g := runPFSClientsGoroutine(n)
		c := runPFSClientsCont(n)
		if strings.Join(g, "\n") != strings.Join(c, "\n") {
			t.Fatalf("n=%d: engines diverge\n--- goroutine ---\n%s\n--- continuation ---\n%s",
				n, strings.Join(g, "\n"), strings.Join(c, "\n"))
		}
	}
}
