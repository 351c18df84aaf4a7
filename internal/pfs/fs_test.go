package pfs

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/simkernel"
)

func TestConfigDefaults(t *testing.T) {
	var c Config
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.NumOSTs != 512 || c.MaxStripeCount != 160 || c.DefaultStripeCount != 4 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if c.DiskBW != 180*MB || c.CacheBytes != 2*GB {
		t.Fatalf("unexpected bandwidth defaults: %+v", c)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []Config{
		{CacheBytes: -1},
		{WriteLatency: -1},
		{DefaultStripeCount: 200, MaxStripeCount: 160},
		{MaxChunksPerOp: -1},
		{MDSServiceCV: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestLayoutResolutionRoundRobin(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 6
	cfg.MaxStripeCount = 4
	cfg.DefaultStripeCount = 2
	fs := MustNew(k, cfg)
	var f1, f2 *File
	k.Spawn("creator", func(p *simkernel.Proc) {
		f1, _ = fs.Create(p, "a", Layout{})
		f2, _ = fs.Create(p, "b", Layout{})
	})
	k.Run()
	k.Shutdown()
	if got := f1.StripeOSTs(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("file a osts = %v", got)
	}
	if got := f2.StripeOSTs(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("file b osts = %v", got)
	}
}

func TestLayoutErrors(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 8
	cfg.MaxStripeCount = 4
	fs := MustNew(k, cfg)
	var errs []error
	k.Spawn("creator", func(p *simkernel.Proc) {
		_, e1 := fs.Create(p, "x", Layout{StripeCount: 5})
		_, e2 := fs.Create(p, "y", Layout{OSTs: []int{0, 1, 2, 3, 4}})
		_, e3 := fs.Create(p, "z", Layout{OSTs: []int{99}})
		errs = append(errs, e1, e2, e3)
	})
	k.Run()
	k.Shutdown()
	for i, e := range errs {
		if e == nil {
			t.Errorf("layout error case %d: expected error", i)
		}
	}
}

func TestStripeCountExceedingOSTs(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 2
	cfg.MaxStripeCount = 160
	fs := MustNew(k, cfg)
	var err error
	k.Spawn("creator", func(p *simkernel.Proc) {
		_, err = fs.Create(p, "x", Layout{StripeCount: 3})
	})
	k.Run()
	k.Shutdown()
	if err == nil {
		t.Fatal("expected error for stripe count > OST count")
	}
}

func TestChunksForConservesBytesProperty(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.NumOSTs = 16
	cfg.MaxChunksPerOp = 8
	fs := MustNew(k, cfg)
	var f *File
	k.Spawn("creator", func(p *simkernel.Proc) {
		f, _ = fs.Create(p, "f", Layout{OSTs: []int{1, 3, 5, 7}, StripeSize: 64})
	})
	k.Run()
	k.Shutdown()

	prop := func(off16, len24 uint32) bool {
		offset := int64(off16 % 4096)
		length := int64(len24%100000) + 1
		var total int64
		chunks := f.appendChunks(nil, offset, length)
		if len(chunks) > cfg.MaxChunksPerOp {
			return false
		}
		for _, c := range chunks {
			if c.bytes <= 0 {
				return false
			}
			valid := false
			for _, o := range f.osts {
				if c.ost == o {
					valid = true
				}
			}
			if !valid {
				return false
			}
			total += c.bytes
		}
		return total == length
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChunksForSingleOSTFastPath(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var f *File
	k.Spawn("creator", func(p *simkernel.Proc) {
		f, _ = fs.Create(p, "f", Layout{OSTs: []int{2}})
	})
	k.Run()
	k.Shutdown()
	chunks := f.appendChunks(nil, 0, 1<<30)
	if len(chunks) != 1 || chunks[0].ost != 2 || chunks[0].bytes != 1<<30 {
		t.Fatalf("single-OST chunks = %+v", chunks)
	}
	if f.appendChunks(nil, 0, 0) != nil {
		t.Fatal("zero-length write should produce no chunks")
	}
}

func TestChunksForExactStripeRotation(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.MaxChunksPerOp = 100
	fs := MustNew(k, cfg)
	var f *File
	k.Spawn("creator", func(p *simkernel.Proc) {
		f, _ = fs.Create(p, "f", Layout{OSTs: []int{0, 1, 2}, StripeSize: 10})
	})
	k.Run()
	k.Shutdown()
	// 35 bytes from offset 5: stripes 0(5B),1(10B),2(10B),3(10B) →
	// OSTs 0,1,2,0.
	chunks := f.appendChunks(nil, 5, 35)
	want := []chunk{{0, 5}, {1, 10}, {2, 10}, {0, 10}}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %+v", chunks)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunk %d = %+v, want %+v", i, chunks[i], want[i])
		}
	}
}

func TestCoarsenBoundsAndConserves(t *testing.T) {
	in := make([]chunk, 100)
	var total int64
	for i := range in {
		in[i] = chunk{ost: i % 7, bytes: int64(i + 1)}
		total += int64(i + 1)
	}
	out := coarsen(in, 10)
	if len(out) > 10 {
		t.Fatalf("coarsen produced %d chunks", len(out))
	}
	var got int64
	for _, c := range out {
		got += c.bytes
	}
	if got != total {
		t.Fatalf("coarsen lost bytes: %d vs %d", got, total)
	}
}

func TestWriteAtUpdatesSizeAndFlushCompletes(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 500
	fs := MustNew(k, cfg)
	var size int64
	k.Spawn("w", func(p *simkernel.Proc) {
		f, err := fs.Create(p, "out", Layout{OSTs: []int{0, 1}, StripeSize: 100})
		if err != nil {
			t.Error(err)
			return
		}
		f.WriteAt(p, 0, 450)
		f.Flush(p)
		f.Close(p)
		size = f.Size()
	})
	k.Run()
	k.Shutdown()
	if size != 450 {
		t.Fatalf("size = %d, want 450", size)
	}
	ing := fs.TotalBytesIngested()
	dr := fs.TotalBytesDrained()
	if math.Abs(ing-450) > 1e-3 || math.Abs(dr-450) > 1e-3 {
		t.Fatalf("ingested/drained = %v/%v, want 450", ing, dr)
	}
}

func TestAppendAdvancesOffset(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var offs []int64
	k.Spawn("w", func(p *simkernel.Proc) {
		f, _ := fs.Create(p, "log", Layout{OSTs: []int{0}})
		for _, n := range []int64{100, 50, 25} {
			off, err := f.Append(p, n)
			if err != nil {
				t.Errorf("Append(%d): %v", n, err)
			}
			offs = append(offs, off)
		}
	})
	k.Run()
	k.Shutdown()
	if offs[0] != 0 || offs[1] != 100 || offs[2] != 150 {
		t.Fatalf("append offsets = %v", offs)
	}
}

func TestOpenMissingFileErrors(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var err error
	k.Spawn("r", func(p *simkernel.Proc) {
		_, err = fs.Open(p, "ghost")
	})
	k.Run()
	k.Shutdown()
	if err == nil {
		t.Fatal("expected error opening missing file")
	}
}

func TestOpenExistingSeesMasterSize(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	var size int64
	k.Spawn("w", func(p *simkernel.Proc) {
		f, _ := fs.Create(p, "data", Layout{OSTs: []int{0}})
		f.WriteAt(p, 0, 200)
		f.Close(p)
		g, err := fs.Open(p, "data")
		if err != nil {
			t.Error(err)
			return
		}
		size = g.Size()
		g.Close(p)
	})
	k.Run()
	k.Shutdown()
	if size != 200 {
		t.Fatalf("reopened size = %d, want 200", size)
	}
	if !fs.Exists("data") || fs.Exists("ghost") {
		t.Fatal("Exists misreports")
	}
}

func TestWriteToClosedFilePanics(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, flatConfig())
	panicked := false
	k.Spawn("w", func(p *simkernel.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		f, _ := fs.Create(p, "c", Layout{OSTs: []int{0}})
		f.Close(p)
		f.WriteAt(p, 0, 10)
	})
	k.Run()
	k.Shutdown()
	if !panicked {
		t.Fatal("expected panic writing to closed file")
	}
}

func TestMDSQueueing(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.MDSCapacity = 1
	cfg.MDSServiceMean = 1.0
	cfg.MDSServiceCV = 1e-9 // effectively deterministic service
	fs := MustNew(k, cfg)
	var lastDone float64
	for i := 0; i < 4; i++ {
		k.Spawn("opener", func(p *simkernel.Proc) {
			fs.MDS.Op(p)
			if at := p.Now().Seconds(); at > lastDone {
				lastDone = at
			}
		})
	}
	k.Run()
	k.Shutdown()
	// Four serialized ~1s ops on a capacity-1 MDS finish near t=4.
	if lastDone < 3.5 || lastDone > 4.5 {
		t.Fatalf("last MDS op at %v, want ~4", lastDone)
	}
	if fs.MDS.Stats.OpsServed != 4 {
		t.Fatalf("ops served = %d", fs.MDS.Stats.OpsServed)
	}
	if fs.MDS.Stats.MaxQueue == 0 {
		t.Fatal("expected queueing at the MDS")
	}
}

func TestReadAtTakesTime(t *testing.T) {
	k := simkernel.New()
	cfg := flatConfig()
	cfg.ClientCap = 50
	fs := MustNew(k, cfg)
	var at float64
	k.Spawn("r", func(p *simkernel.Proc) {
		f, _ := fs.Create(p, "in", Layout{OSTs: []int{0}})
		f.WriteAt(p, 0, 500)
		start := p.Now().Seconds()
		f.ReadAt(p, 0, 500)
		at = p.Now().Seconds() - start
	})
	k.Run()
	k.Shutdown()
	if at < 5 { // 500 bytes at ≤100 B/s disk, capped at 50 → ≥10s; allow slack
		t.Fatalf("read took %v s, expected noticeable time", at)
	}
}

func TestFilesystemDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		k := simkernel.New()
		cfg := flatConfig()
		cfg.Seed = 99
		fs := MustNew(k, cfg)
		var t1, t2 float64
		k.Spawn("a", func(p *simkernel.Proc) {
			f, _ := fs.Create(p, "a", Layout{OSTs: []int{0, 1}, StripeSize: 100})
			f.WriteAt(p, 0, 1000)
			f.Flush(p)
			t1 = p.Now().Seconds()
		})
		k.Spawn("b", func(p *simkernel.Proc) {
			f, _ := fs.Create(p, "b", Layout{OSTs: []int{1, 2}, StripeSize: 100})
			f.WriteAt(p, 0, 800)
			f.Flush(p)
			t2 = p.Now().Seconds()
		})
		k.Run()
		k.Shutdown()
		return t1, t2
	}
	a1, a2 := run()
	b1, b2 := run()
	if a1 != b1 || a2 != b2 {
		t.Fatalf("nondeterministic: (%v,%v) vs (%v,%v)", a1, a2, b1, b2)
	}
}
