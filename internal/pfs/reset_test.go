package pfs

import (
	"fmt"
	"testing"

	"repro/internal/simkernel"
)

// mdsWorkload runs a small mixed metadata + data workload and returns its
// measured completion times plus the MDS service total (which exercises the
// reseeded lognormal stream).
func mdsWorkload(k *simkernel.Kernel, fs *FileSystem) (float64, float64, float64) {
	var t1, t2 float64
	k.Spawn("a", func(p *simkernel.Proc) {
		f, _ := fs.Create(p, "a", Layout{OSTs: []int{0, 1}, StripeSize: 100})
		f.WriteAt(p, 0, 1000)
		f.Flush(p)
		f.Close(p)
		t1 = p.Now().Seconds()
	})
	k.Spawn("b", func(p *simkernel.Proc) {
		f, _ := fs.Create(p, "b", Layout{StripeCount: 2})
		f.WriteAt(p, 0, 800)
		f.Flush(p)
		f.Close(p)
		t2 = p.Now().Seconds()
	})
	k.Run()
	return t1, t2, fs.MDS.Stats.TotalService
}

// TestFileSystemResetBitIdentical is the pfs layer's world-reuse contract: a
// Reset file system replays a workload bit-identically to a freshly built
// one — same completion times, same MDS service draws, clean namespace and
// round-robin allocator.
func TestFileSystemResetBitIdentical(t *testing.T) {
	cfg := flatConfig()
	cfg.Seed = 99

	fresh := func() (float64, float64, float64) {
		k := simkernel.New()
		fs := MustNew(k, cfg)
		defer k.Shutdown()
		return mdsWorkload(k, fs)
	}
	a1, a2, a3 := fresh()

	k := simkernel.New()
	defer k.Shutdown()
	dirty := flatConfig()
	dirty.Seed = 1234
	fs := MustNew(k, dirty)
	mdsWorkload(k, fs) // dirty the world with a different seed's run
	k.Reset()
	if err := fs.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("a") || fs.Exists("b") {
		t.Fatal("Reset did not clear the namespace")
	}
	b1, b2, b3 := mdsWorkload(k, fs)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("reset world diverged: fresh (%v,%v,%v) vs reused (%v,%v,%v)",
			a1, a2, a3, b1, b2, b3)
	}
}

// TestFileSystemResetResizesOSTs covers reuse across configurations whose
// target counts differ in both directions.
func TestFileSystemResetResizesOSTs(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	cfg := flatConfig()
	cfg.Seed = 5
	fs := MustNew(k, cfg)

	grown := cfg
	grown.NumOSTs = 7
	if err := fs.Reset(grown); err != nil {
		t.Fatal(err)
	}
	if len(fs.OSTs) != 7 {
		t.Fatalf("grew to %d OSTs, want 7", len(fs.OSTs))
	}
	for i, o := range fs.OSTs {
		if o.ID != i {
			t.Fatalf("OST %d has ID %d", i, o.ID)
		}
	}

	shrunk := cfg
	shrunk.NumOSTs = 2
	if err := fs.Reset(shrunk); err != nil {
		t.Fatal(err)
	}
	if len(fs.OSTs) != 2 {
		t.Fatalf("shrank to %d OSTs, want 2", len(fs.OSTs))
	}
}

// TestFileSystemResetRejectsBadConfig keeps Reset's validation aligned with
// New's.
func TestFileSystemResetRejectsBadConfig(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, flatConfig())
	bad := flatConfig()
	bad.CacheBytes = -1
	if err := fs.Reset(bad); err == nil {
		t.Fatal("Reset accepted a config New would reject")
	}
}

// TestFileSystemResetSteadyStateZeroAlloc gates the reuse claim at the pfs
// layer: resetting a warmed file system at a fixed seed allocates nothing.
func TestFileSystemResetSteadyStateZeroAlloc(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	cfg := flatConfig()
	cfg.Seed = 77
	fs := MustNew(k, cfg)
	mdsWorkload(k, fs)
	k.Reset()
	if err := fs.Reset(cfg); err != nil { // warm the RNG seed caches
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		k.Reset()
		if err := fs.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Fatalf("warm FileSystem.Reset allocates %v allocs/op; want 0", got)
	}
}

// nsClient is a continuation client that creates, writes, flushes and
// closes its files one after another, each on a single target.
type nsClient struct {
	pc, i   int
	fs      *FileSystem
	names   []string
	create  CreateOp
	write   WriteOp
	flush   FlushOp
	closeOp CloseOp
}

func (m *nsClient) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			if m.i == len(m.names) {
				return true
			}
			m.create.BeginCreate(m.fs, m.names[m.i], Layout{OSTs: []int{m.i % len(m.fs.OSTs)}})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if err := m.create.Err(); err != nil {
				panic(err)
			}
			m.write.BeginWrite(m.create.File(), 0, 300)
			m.pc = 2
		case 2:
			if !m.write.Step(c) {
				return false
			}
			m.flush.BeginFlush(m.create.File())
			m.pc = 3
		case 3:
			if !m.flush.Step(c) {
				return false
			}
			m.closeOp.BeginClose(m.create.File())
			m.pc = 4
		default:
			if !m.closeOp.Step(c) {
				return false
			}
			m.i++
			m.pc = 0
		}
	}
}

// TestNamespaceSteadyStateZeroAlloc gates the namespace arena: on a reused
// file system, a cycle of Reset followed by create/write/flush/close of
// single-target files with pre-built names allocates nothing once warm —
// handles come from the arena, layouts from the shared one-target table,
// and touched sets and flush lists reuse their capacity.
func TestNamespaceSteadyStateZeroAlloc(t *testing.T) {
	const clients, files = 4, 96 // more files than one arena chunk
	k := simkernel.New()
	defer k.Shutdown()
	cfg := handleConfig()
	cfg.Seed = 77
	fs := MustNew(k, cfg)
	cs := make([]nsClient, clients)
	for ci := range cs {
		cs[ci].fs = fs
		for i := 0; i < files; i++ {
			cs[ci].names = append(cs[ci].names, fmt.Sprintf("c%d.f%d", ci, i))
		}
	}
	cycle := func() {
		k.Reset()
		if err := fs.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		for ci := range cs {
			cs[ci].pc, cs[ci].i = 0, 0
			k.SpawnCont("ns", &cs[ci])
		}
		k.Run()
	}
	cycle()
	cycle()
	if fs.nfile != clients*files || !fs.Exists("c3.f95") {
		t.Fatalf("cycle created %d files, want %d", fs.nfile, clients*files)
	}
	if got := testing.AllocsPerRun(20, cycle); got != 0 {
		t.Fatalf("namespace cycle allocates %v allocs/op in steady state; want 0", got)
	}
}
