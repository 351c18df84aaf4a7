package staging

import (
	"math"
	"testing"

	"repro/internal/iomethod"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// run executes one staged output step and returns the result (after the
// drain completes) plus the file system for inspection.
func run(t *testing.T, writers int, bytesPerRank int64, cfg Config,
	tweak func(*pfs.FileSystem)) (*iomethod.StepResult, *pfs.FileSystem) {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(9).FS
	fsCfg.NumOSTs = 16
	fs := pfs.MustNew(k, fsCfg)
	if tweak != nil {
		tweak(fs)
	}
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	m, err := New(w, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	wg := w.Launch("app", func(r *mpisim.Rank) {
		data := iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "f", Bytes: bytesPerRank, Min: 0, Max: 1},
		}}
		rr, err := m.WriteStep(r, "stg", data)
		if err != nil {
			t.Error(err)
			return
		}
		res = rr
	})
	k.Run() // drains complete when the queue empties
	if wg.Count() != 0 {
		t.Fatal("ranks did not finish")
	}
	k.Shutdown()
	return res, fs
}

func TestStagingConservation(t *testing.T) {
	const W = 16
	const size = 8 * int64(pfs.MB)
	res, fs := run(t, W, size, Config{Nodes: 4}, nil)
	if math.Abs(res.TotalBytes-float64(W*size)) > 1 {
		t.Fatalf("total bytes %v", res.TotalBytes)
	}
	if res.Global == nil || res.Global.NumEntries() != W {
		t.Fatalf("index incomplete: %+v", res.Global)
	}
	if res.Files != 4 {
		t.Fatalf("files = %d", res.Files)
	}
	ing := fs.TotalBytesIngested()
	if math.Abs(ing-(res.TotalBytes+res.IndexBytes)) > 16 {
		t.Fatalf("FS ingested %v, want %v", ing, res.TotalBytes+res.IndexBytes)
	}
}

func TestAsynchronyHidesStorageTime(t *testing.T) {
	// With generous buffers, the application-blocking time is network
	// transfer only; the drain finishes much later.
	res, _ := run(t, 16, 32*int64(pfs.MB), Config{
		Nodes: 4, BufferBytes: 1 * pfs.GB, NodeIngestBW: 2 * pfs.GB,
	}, nil)
	if res.DrainElapsed <= res.Elapsed*1.5 {
		t.Fatalf("drain (%.3fs) should greatly outlast the blocking span (%.3fs)",
			res.DrainElapsed, res.Elapsed)
	}
}

func TestLimitedBufferDegeneratesTowardSynchronous(t *testing.T) {
	// The paper's point: buffer space bounds the achievable asynchronicity.
	// With a buffer that fits only one block per node, later ranks block on
	// earlier drains.
	big, _ := run(t, 16, 32*int64(pfs.MB), Config{
		Nodes: 2, BufferBytes: 1 * pfs.GB, NodeIngestBW: 2 * pfs.GB,
	}, nil)
	small, _ := run(t, 16, 32*int64(pfs.MB), Config{
		Nodes: 2, BufferBytes: 33 * pfs.MB, NodeIngestBW: 2 * pfs.GB,
	}, nil)
	if small.Elapsed <= big.Elapsed*2 {
		t.Fatalf("tight buffers should push blocking time toward drain time: %.3fs vs %.3fs",
			small.Elapsed, big.Elapsed)
	}
}

func TestStagingDoesNotEscapeInterference(t *testing.T) {
	// The drain still crosses the interfered file system: with loaded
	// targets and tight buffers, staging slows down too.
	cfg := Config{Nodes: 2, BufferBytes: 40 * pfs.MB, NodeIngestBW: 2 * pfs.GB,
		OSTs: []int{0, 1}}
	clean, _ := run(t, 16, 32*int64(pfs.MB), cfg, nil)
	loaded, _ := run(t, 16, 32*int64(pfs.MB), cfg, func(fs *pfs.FileSystem) {
		// Competing jobs on the drain targets: slow disks and occupied
		// caches, the combination a busy production system presents.
		for _, i := range []int{0, 1} {
			fs.OST(i).SetSlowFactor(0.15)
			fs.OST(i).SetExternalStreams(3)
		}
	})
	if loaded.Elapsed <= clean.Elapsed*1.3 {
		t.Fatalf("interference should reach through staging: %.3fs vs %.3fs",
			loaded.Elapsed, clean.Elapsed)
	}
}

func TestLeastLoadedDrainAvoidsSlowTarget(t *testing.T) {
	base := Config{Nodes: 4, BufferBytes: 64 * pfs.MB, NodeIngestBW: 2 * pfs.GB,
		OSTs: []int{0, 1, 2, 3}}
	slow := func(fs *pfs.FileSystem) { fs.OST(0).SetSlowFactor(0.1) }

	rr := base
	rr.Policy = DrainRoundRobin
	roundRobin, _ := run(t, 16, 32*int64(pfs.MB), rr, slow)

	ll := base
	ll.Policy = DrainLeastLoaded
	leastLoaded, _ := run(t, 16, 32*int64(pfs.MB), ll, slow)

	if leastLoaded.DrainElapsed >= roundRobin.DrainElapsed {
		t.Fatalf("least-loaded drain (%.3fs) should beat round-robin (%.3fs) with a slow target",
			leastLoaded.DrainElapsed, roundRobin.DrainElapsed)
	}
	// Conservation must hold regardless of placement.
	if leastLoaded.Global.NumEntries() != 16 {
		t.Fatal("least-loaded drain lost index entries")
	}
}

func TestOversizedBlockRejected(t *testing.T) {
	k := simkernel.New()
	fs := pfs.MustNew(k, pfs.Config{NumOSTs: 4})
	w := mpisim.NewWorld(k, 1, mpisim.Options{})
	m, err := New(w, fs, Config{Nodes: 1, BufferBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var stepErr error
	w.Launch("app", func(r *mpisim.Rank) {
		_, stepErr = m.WriteStep(r, "s", iomethod.RankData{
			Vars: []iomethod.VarSpec{{Name: "v", Bytes: 4096}},
		})
	})
	k.Run()
	k.Shutdown()
	if stepErr == nil {
		t.Fatal("oversized block accepted")
	}
}

// semUser acquires n bytes, records its turn, holds the bytes for hold
// seconds and releases them.
type semUser struct {
	pc      int
	sem     *byteSem
	id      int
	n, hold float64
	order   *[]int
}

func (u *semUser) Step(c *simkernel.ContProc) bool {
	switch u.pc {
	case 0:
		u.pc = 1
		if !u.sem.Acquire(c, u.n) {
			return false
		}
		fallthrough
	case 1:
		*u.order = append(*u.order, u.id)
		u.pc = 2
		c.SleepSeconds(u.hold)
		return false
	default:
		u.sem.Release(u.n)
		return true
	}
}

func TestByteSemFIFO(t *testing.T) {
	k := simkernel.New()
	sem := newByteSem(100)
	var order []int
	acquire := func(id int, n float64, hold float64) {
		k.SpawnCont("a", &semUser{sem: sem, id: id, n: n, hold: hold, order: &order})
	}
	acquire(1, 80, 1)
	acquire(2, 80, 1) // must wait for 1
	acquire(3, 10, 1) // fits now, but FIFO: queued behind 2
	k.Run()
	k.Shutdown()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want FIFO [1 2 3]", order)
	}
	if sem.Free() != 100 {
		t.Fatalf("leaked bytes: free = %v", sem.Free())
	}
}

func TestStagingDeterministic(t *testing.T) {
	a, _ := run(t, 12, 16*int64(pfs.MB), Config{Nodes: 3}, nil)
	b, _ := run(t, 12, 16*int64(pfs.MB), Config{Nodes: 3}, nil)
	if a.Elapsed != b.Elapsed || a.DrainElapsed != b.DrainElapsed {
		t.Fatalf("nondeterministic staging: %v/%v vs %v/%v",
			a.Elapsed, a.DrainElapsed, b.Elapsed, b.DrainElapsed)
	}
}
