package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/iomethod"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The shim pin at the adaptive-method level: the same collective step,
// once on goroutine ranks calling WriteStep (an Await adaptor over the step
// machine) and once on continuation ranks driving BeginStepCont, must end
// at the same virtual time with the same step result and server statistics
// — including runs where the coordinator redirects writes to idle targets.

// stepRunner drives one BeginStepCont machine as a rank continuation.
type stepRunner struct {
	pc   int
	m    iomethod.Method
	data iomethod.RankData
	sc   iomethod.StepCont
	out  func(*iomethod.StepResult, error)
}

func (s *stepRunner) StepRank(r *mpisim.Rank, c *simkernel.ContProc) bool {
	for {
		switch s.pc {
		case 0:
			s.sc = s.m.BeginStepCont(r, "out", s.data)
			s.pc = 1
		default:
			if !s.sc.Step(c) {
				return false
			}
			s.out(s.sc.Result())
			return true
		}
	}
}

type stepOutcome struct {
	res      iomethod.StepResult
	end      simkernel.Time
	ingested float64
	drained  float64
	mdsOps   int
	messages int
}

func runAdaptiveStep(t *testing.T, writers, numOSTs int, mb int64, slowOST float64, cfg Config, cont bool) stepOutcome {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = numOSTs
	fs := pfs.MustNew(k, fsCfg)
	if slowOST > 0 {
		fs.OST(0).SetSlowFactor(slowOST)
	}
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	a, err := New(w, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	data := func(rank int) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "u", Bytes: int64(pfs.MB) * (mb + int64(rank%3)), Min: 0, Max: 1},
		}}
	}
	if cont {
		w.LaunchCont("app", func(i int) mpisim.RankCont {
			return &stepRunner{m: a, data: data(i), out: func(rr *iomethod.StepResult, err error) {
				if err != nil {
					t.Error(err)
					return
				}
				res = rr
			}}
		})
	} else {
		w.Launch("app", func(r *mpisim.Rank) {
			rr, err := a.WriteStep(r, "out", data(r.Rank()))
			if err != nil {
				t.Error(err)
				return
			}
			res = rr
		})
	}
	k.Run()
	if res == nil {
		t.Fatal("step did not complete")
	}
	out := stepOutcome{
		res:      *res,
		end:      k.Now(),
		ingested: fs.TotalBytesIngested(),
		drained:  fs.TotalBytesDrained(),
		mdsOps:   fs.MDS.Stats.OpsServed,
		messages: w.MessagesSent,
	}
	k.Shutdown()
	return out
}

func TestContStepMatchesWriteStep(t *testing.T) {
	cases := []struct {
		cfg     Config
		writers int
		mb      int64
		slow    float64
	}{
		{Config{}, 12, 2, 0},
		{Config{}, 32, 32, 0.15},
		{Config{StaggerOpens: 2 * time.Millisecond}, 12, 2, 0.15},
		{Config{DisableAdaptation: true}, 12, 2, 0.15},
		{Config{HistoryAware: true, WritersPerTarget: 2}, 32, 32, 0.15},
	}
	sawAdaptive := false
	for ci, tc := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			g := runAdaptiveStep(t, tc.writers, 4, tc.mb, tc.slow, tc.cfg, false)
			c := runAdaptiveStep(t, tc.writers, 4, tc.mb, tc.slow, tc.cfg, true)
			if !reflect.DeepEqual(g, c) {
				t.Fatalf("engines diverge:\ngoroutine: %+v\ncont:      %+v", g, c)
			}
			if g.res.AdaptiveWrites > 0 {
				sawAdaptive = true
			}
		})
	}
	if !sawAdaptive {
		t.Fatal("no case exercised an adaptive (redirected) write")
	}
}
