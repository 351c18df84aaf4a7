package mpiio

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/iomethod"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// The shim pin at the mpiio level: the same collective step, once on
// goroutine ranks calling WriteStep (an Await adaptor over the step
// machine) and once on continuation ranks driving BeginStepCont, against
// identically seeded worlds, must end at the same virtual time with the
// same step result and server statistics.

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
}

func runStep(t *testing.T, writers, numOSTs int, cfg Config, cont bool) stepOutcome {
	t.Helper()
	k := simkernel.New()
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = numOSTs
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, writers, mpisim.Options{})
	m, err := New(w, fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	data := func(rank int) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "u", Bytes: int64(pfs.MB) * int64(1+rank%3), Min: 0, Max: 1},
		}}
	}
	if cont {
		w.LaunchCont("app", func(i int) mpisim.RankCont {
			return &stepRunner{m: m, data: data(i), out: func(rr *iomethod.StepResult, err error) {
				if err != nil {
					t.Error(err)
					return
				}
				res = rr
			}}
		})
	} else {
		w.Launch("app", func(r *mpisim.Rank) {
			rr, err := m.WriteStep(r, "out", data(r.Rank()))
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
	}
	k.Shutdown()
	return out
}

func TestContStepMatchesWriteStep(t *testing.T) {
	cases := []Config{
		{},
		{NoFlush: true},
		{SplitFiles: 3},
		{SplitFiles: 4, NoFlush: true},
	}
	for ci, cfg := range cases {
		t.Run(fmt.Sprintf("case%d", ci), func(t *testing.T) {
			g := runStep(t, 13, 6, cfg, false)
			c := runStep(t, 13, 6, cfg, true)
			if !reflect.DeepEqual(g, c) {
				t.Fatalf("engines diverge:\ngoroutine: %+v\ncont:      %+v", g, c)
			}
		})
	}
}
