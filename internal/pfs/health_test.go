package pfs

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/simkernel"
)

// Tests for the OST/MDS health lifecycle: Dead targets fail newly issued
// client operations with ErrTargetDown after the configured timeout, stall
// in-flight transfers until revival, Rebuilding taxes drain bandwidth, and
// the per-state residence clock adds up.

func healthTestConfig() Config {
	return Config{NumOSTs: 4, Seed: 11, DeadTimeout: 2}
}

func TestDeadOSTWriteReturnsErrTargetDown(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	fs.OSTs[0].SetHealth(Dead, 1)
	var err error
	var elapsed float64
	k.Spawn("w", func(p *simkernel.Proc) {
		f, cerr := fs.Create(p, "out", Layout{OSTs: []int{0}})
		if cerr != nil {
			t.Errorf("create: %v", cerr)
			return
		}
		start := k.Now()
		err = f.WriteAt(p, 0, 1<<20)
		elapsed = (k.Now() - start).Seconds()
	})
	k.Run()
	k.Shutdown()
	if !errors.Is(err, ErrTargetDown) {
		t.Fatalf("WriteAt error = %v, want ErrTargetDown", err)
	}
	var tde *TargetDownError
	if !errors.As(err, &tde) || tde.OST != 0 {
		t.Fatalf("error = %#v, want TargetDownError{OST: 0}", err)
	}
	if elapsed < 2 {
		t.Fatalf("write failed after %.3fs, want >= DeadTimeout (2s)", elapsed)
	}
	if got := fs.OSTs[0].Stats.WritesFailed; got != 1 {
		t.Fatalf("WritesFailed = %d, want 1", got)
	}
}

func TestDeadOSTReadReturnsErrTargetDown(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	var err error
	k.Spawn("r", func(p *simkernel.Proc) {
		f, cerr := fs.Create(p, "in", Layout{OSTs: []int{1}})
		if cerr != nil {
			t.Errorf("create: %v", cerr)
			return
		}
		if werr := f.WriteAt(p, 0, 1<<20); werr != nil {
			t.Errorf("seed write: %v", werr)
		}
		f.Flush(p)
		fs.OSTs[1].SetHealth(Dead, 1)
		err = f.ReadAt(p, 0, 1<<20)
	})
	k.Run()
	k.Shutdown()
	if !errors.Is(err, ErrTargetDown) {
		t.Fatalf("ReadAt error = %v, want ErrTargetDown", err)
	}
	if got := fs.OSTs[1].Stats.ReadsFailed; got != 1 {
		t.Fatalf("ReadsFailed = %d, want 1", got)
	}
}

// TestInFlightWriteStallsUntilRevival pins the Lustre-style semantics for
// operations already in flight when a target dies: the transfer stalls at
// zero rate and resumes when the target revives, with no error surfaced.
func TestInFlightWriteStallsUntilRevival(t *testing.T) {
	elapsedWith := func(crash bool) (float64, error) {
		k := simkernel.New()
		cfg := healthTestConfig()
		cfg.CacheBytes = 1 // force drain-bound writes
		fs := MustNew(k, cfg)
		if crash {
			// Crash mid-transfer, revive 5 seconds later.
			k.AfterSeconds(0.5, func() { fs.OSTs[0].SetHealth(Dead, 1) })
			k.AfterSeconds(5.5, func() { fs.OSTs[0].SetHealth(Healthy, 1) })
		}
		var err error
		var el float64
		k.Spawn("w", func(p *simkernel.Proc) {
			f, cerr := fs.Create(p, "big", Layout{OSTs: []int{0}})
			if cerr != nil {
				err = cerr
				return
			}
			start := k.Now()
			err = f.WriteAt(p, 0, 256<<20)
			f.Flush(p)
			el = (k.Now() - start).Seconds()
		})
		k.Run()
		k.Shutdown()
		return el, err
	}
	clean, err := elapsedWith(false)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	stalled, err := elapsedWith(true)
	if err != nil {
		t.Fatalf("crashed run: %v", err)
	}
	if stalled < clean+4.5 {
		t.Fatalf("stalled run took %.3fs vs clean %.3fs; want >= %.3fs (5s outage)",
			stalled, clean, clean+4.5)
	}
}

// TestRebuildTaxSlowsDrain pins that Rebuilding consumes backend bandwidth:
// the same drain-bound write takes measurably longer under a rebuild tax.
func TestRebuildTaxSlowsDrain(t *testing.T) {
	elapsedWith := func(h HealthState, factor float64) float64 {
		k := simkernel.New()
		cfg := healthTestConfig()
		cfg.CacheBytes = 1
		fs := MustNew(k, cfg)
		fs.OSTs[0].SetHealth(h, factor)
		var el float64
		k.Spawn("w", func(p *simkernel.Proc) {
			f, err := fs.Create(p, "big", Layout{OSTs: []int{0}})
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			start := k.Now()
			if werr := f.WriteAt(p, 0, 64<<20); werr != nil {
				t.Errorf("write: %v", werr)
			}
			f.Flush(p)
			el = (k.Now() - start).Seconds()
		})
		k.Run()
		k.Shutdown()
		return el
	}
	// A 0.9 rebuild tax drops the drain rate well below the client cap, so
	// the transfer becomes drain-bound and visibly slower.
	healthy := elapsedWith(Healthy, 1)
	rebuild := elapsedWith(Rebuilding, 0.1)
	if rebuild < healthy*2 {
		t.Fatalf("rebuild run %.3fs vs healthy %.3fs; want >= 2x slower", rebuild, healthy)
	}
}

func TestHealthSecondsAccounting(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	o := fs.OSTs[2]
	k.AfterSeconds(1, func() { o.SetHealth(Dead, 1) })
	k.AfterSeconds(3, func() { o.SetHealth(Rebuilding, 0.5) })
	k.AfterSeconds(7, func() { o.SetHealth(Healthy, 1) })
	var got [NumHealthStates]float64
	k.AfterSeconds(10, func() { got = o.HealthSeconds() })
	k.Run()
	k.Shutdown()
	want := [NumHealthStates]float64{Healthy: 4, Dead: 2, Rebuilding: 4}
	for s := HealthState(0); s < NumHealthStates; s++ {
		if math.Abs(got[s]-want[s]) > 1e-9 {
			t.Fatalf("HealthSeconds[%v] = %v, want %v (all: %v)", s, got[s], want[s], got)
		}
	}
}

func TestMDSStallDelaysOps(t *testing.T) {
	k := simkernel.New()
	fs := MustNew(k, healthTestConfig())
	fs.MDS.Stall(simkernel.FromSeconds(3))
	var opened simkernel.Time
	k.Spawn("c", func(p *simkernel.Proc) {
		if _, err := fs.Create(p, "f", Layout{StripeCount: 1}); err != nil {
			t.Errorf("create: %v", err)
		}
		opened = k.Now()
	})
	k.Run()
	k.Shutdown()
	if opened < simkernel.FromSeconds(3) {
		t.Fatalf("create finished at %v, want >= 3s (stall window)", opened)
	}
	if fs.MDS.Stats.StallSeconds < 2.9 {
		t.Fatalf("StallSeconds = %v, want ~3", fs.MDS.Stats.StallSeconds)
	}
}

func TestSetHealthResetRestoresHealthy(t *testing.T) {
	k := simkernel.New()
	cfg := healthTestConfig()
	fs := MustNew(k, cfg)
	fs.OSTs[0].SetHealth(Dead, 1)
	fs.OSTs[1].SetHealth(Rebuilding, 0.25)
	fs.MDS.Stall(simkernel.FromSeconds(100))
	if err := fs.Reset(cfg); err != nil {
		t.Fatalf("reset: %v", err)
	}
	for i, o := range fs.OSTs {
		if o.Health() != Healthy || o.HealthFactor() != 1 {
			t.Fatalf("OST %d after reset: health=%v factor=%v", i, o.Health(), o.HealthFactor())
		}
		secs := o.HealthSeconds()
		for s, v := range secs {
			if HealthState(s) != Healthy && v != 0 {
				t.Fatalf("OST %d residence[%v]=%v after reset", i, HealthState(s), v)
			}
		}
	}
	if fs.MDS.StallUntil() != 0 {
		t.Fatalf("MDS stall survives reset: %v", fs.MDS.StallUntil())
	}
}

// healthFailCont reproduces the failing-write/failing-read client as a
// continuation driving the ops directly, to diff against the blocking
// adaptors.
type healthFailCont struct {
	pc  int
	fs  *FileSystem
	add func(what string)

	create CreateOp
	write  WriteOp
	read   ReadOp
	f      *File
}

func (m *healthFailCont) Step(c *simkernel.ContProc) bool {
	for {
		switch m.pc {
		case 0:
			m.create.BeginCreate(m.fs, "out", Layout{OSTs: []int{0}})
			m.pc = 1
		case 1:
			if !m.create.Step(c) {
				return false
			}
			if m.create.Err() != nil {
				panic(m.create.Err())
			}
			m.f = m.create.File()
			m.write.BeginWrite(m.f, 0, 1<<20)
			m.pc = 2
		case 2:
			if !m.write.Step(c) {
				return false
			}
			m.add(fmt.Sprintf("write1 err=%v", m.write.Err()))
			m.pc = 3
			c.SleepSeconds(1) // crash lands inside this window
			return false
		case 3:
			m.write.BeginWrite(m.f, 0, 1<<20)
			m.pc = 4
		case 4:
			if !m.write.Step(c) {
				return false
			}
			m.add(fmt.Sprintf("write2 err=%v", m.write.Err()))
			m.read.BeginRead(m.f, 0, 1<<19)
			m.pc = 5
		case 5:
			if !m.read.Step(c) {
				return false
			}
			m.add(fmt.Sprintf("read err=%v", m.read.Err()))
			return true
		}
	}
}

// TestContHealthFailureMatchesGoroutine pins the blocking adaptors on the
// failure path: a write that succeeds, a crash, then a failing write and a
// failing read must produce identical time-stamped outcomes through the
// goroutine client's Await adaptors and through the ops driven directly.
func TestContHealthFailureMatchesGoroutine(t *testing.T) {
	run := func(cont bool) []string {
		k := simkernel.New()
		fs := MustNew(k, healthTestConfig())
		var log []string
		add := func(what string) {
			log = append(log, fmt.Sprintf("%v %s", k.Now(), what))
		}
		// Crash OST 0 between the first (clean) and second (failing) write.
		k.AfterSeconds(0.5, func() { fs.OSTs[0].SetHealth(Dead, 1) })
		if cont {
			k.SpawnCont("c", &healthFailCont{fs: fs, add: add})
		} else {
			k.Spawn("c", func(p *simkernel.Proc) {
				f, err := fs.Create(p, "out", Layout{OSTs: []int{0}})
				if err != nil {
					panic(err)
				}
				add(fmt.Sprintf("write1 err=%v", f.WriteAt(p, 0, 1<<20)))
				p.SleepSeconds(1) // crash lands inside this window
				add(fmt.Sprintf("write2 err=%v", f.WriteAt(p, 0, 1<<20)))
				add(fmt.Sprintf("read err=%v", f.ReadAt(p, 0, 1<<19)))
			})
		}
		k.Run()
		log = append(log, fmt.Sprintf("failed w=%d r=%d",
			fs.OSTs[0].Stats.WritesFailed, fs.OSTs[0].Stats.ReadsFailed))
		k.Shutdown()
		return log
	}
	g := run(false)
	c := run(true)
	if strings.Join(g, "\n") != strings.Join(c, "\n") {
		t.Fatalf("engines diverge on failure path\n--- goroutine ---\n%s\n--- continuation ---\n%s",
			strings.Join(g, "\n"), strings.Join(c, "\n"))
	}
	// And the failure must actually be observed.
	if !strings.Contains(strings.Join(g, "\n"), "write2 err=pfs: OST 0 is down") {
		t.Fatalf("expected write2 failure in log:\n%s", strings.Join(g, "\n"))
	}
}
