package adios

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/cluster"
	"repro/internal/iomethod"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
	"repro/internal/transports/mpiio"
	"repro/internal/transports/posix"
)

// The engine identity pin for every transport: the same collective step,
// once on goroutine ranks calling the blocking Close (each transport's
// WriteStep awaits its step machine) and once on continuation ranks driving
// BeginCloseCont, against identically seeded worlds, must end at the same
// virtual time with the same step result, server statistics and message
// count — including adaptive runs where the coordinator redirects writes
// and staging runs whose ranks wait on the drainers.

// closeRank drives one BeginCloseCont machine as a rank continuation.
type closeRank struct {
	pc   int
	io   *IO
	data iomethod.RankData
	cc   CloseCont
	out  *stepOutcome
}

func (b *closeRank) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	if b.pc == 0 {
		f := b.io.Open(r, "out")
		f.WriteData(b.data)
		f.BeginCloseCont(&b.cc)
		b.pc = 1
	}
	if !b.cc.Step(c) {
		return false
	}
	b.out.record(b.cc.Result())
	return true
}

type stepOutcome struct {
	shared   *iomethod.StepResult // the step's result, read after the drain
	res      iomethod.StepResult
	errs     int
	end      simkernel.Time
	ingested float64
	drained  float64
	mdsOps   int
	messages int
}

func (o *stepOutcome) record(res *StepResult, err error) {
	if err != nil {
		o.errs++
		return
	}
	o.shared = res.StepResult
}

// identityCase is one transport configuration of the pin. build, when set,
// constructs the transport directly, reaching knobs Options does not carry
// (NoFlush).
type identityCase struct {
	opt     Options
	build   func(w *mpisim.World, fs *pfs.FileSystem) (iomethod.Method, error)
	writers int
	osts    int
	mb      int64   // rank r writes (mb + r%3) MB
	slow    float64 // service factor of target 0 (0 = clean)
}

func runIdentityCase(t *testing.T, tc identityCase, cont bool) stepOutcome {
	t.Helper()
	c := cluster.Jaguar(cluster.Config{Seed: 5, NumOSTs: tc.osts})
	defer c.Shutdown()
	if tc.slow > 0 {
		c.SlowOST(0, tc.slow)
	}
	w := c.NewWorld(tc.writers)
	var io *IO
	if tc.build != nil {
		m, err := tc.build(w.MPI(), c.FileSystem())
		if err != nil {
			t.Fatal(err)
		}
		io = &IO{method: m, world: w}
	} else {
		var err error
		if io, err = NewIO(c, w, tc.opt); err != nil {
			t.Fatal(err)
		}
	}
	data := func(rank int) iomethod.RankData {
		return iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "u", Bytes: int64(pfs.MB) * (tc.mb + int64(rank%3)), Min: 0, Max: 1},
		}}
	}
	var out stepOutcome
	var j *cluster.Join
	if cont {
		j = w.LaunchCont(func(i int) cluster.RankCont {
			return &closeRank{io: io, data: data(i), out: &out}
		})
	} else {
		j = w.Launch(func(r *cluster.Rank) {
			f := io.Open(r, "out")
			f.WriteData(data(r.Rank()))
			out.record(f.Close())
		})
	}
	c.Run() // no noise: the kernel drains once every drainer has finished
	if !j.Done() {
		t.Fatal("step did not complete")
	}
	if out.shared == nil {
		t.Fatal("no rank returned a result")
	}
	out.res = *out.shared
	out.shared = nil
	fs := c.FileSystem()
	out.end = c.Kernel().Now()
	out.ingested = fs.TotalBytesIngested()
	out.drained = fs.TotalBytesDrained()
	out.mdsOps = fs.MDS.Stats.OpsServed
	out.messages = w.MPI().MessagesSent
	return out
}

func TestCloseContMatchesClose(t *testing.T) {
	noFlushMPI := func(split int) func(*mpisim.World, *pfs.FileSystem) (iomethod.Method, error) {
		return func(w *mpisim.World, fs *pfs.FileSystem) (iomethod.Method, error) {
			return mpiio.New(w, fs, mpiio.Config{NoFlush: true, SplitFiles: split})
		}
	}
	cases := map[Method][]identityCase{
		MethodMPI: {
			{opt: Options{Method: MethodMPI}, writers: 13, osts: 6, mb: 1},
			{build: noFlushMPI(0), writers: 13, osts: 6, mb: 1},
			{opt: Options{Method: MethodMPI, MPISplitFiles: 3}, writers: 13, osts: 6, mb: 1},
			{build: noFlushMPI(4), writers: 13, osts: 6, mb: 1},
		},
		MethodAdaptive: {
			{opt: Options{}, writers: 12, osts: 4, mb: 2},
			{opt: Options{}, writers: 32, osts: 4, mb: 32, slow: 0.15},
			{opt: Options{StaggerOpens: 2 * time.Millisecond}, writers: 12, osts: 4, mb: 2, slow: 0.15},
			{opt: Options{DisableAdaptation: true}, writers: 12, osts: 4, mb: 2, slow: 0.15},
			{opt: Options{HistoryAware: true, WritersPerTarget: 2}, writers: 32, osts: 4, mb: 32, slow: 0.15},
		},
		MethodPOSIX: {
			{opt: Options{Method: MethodPOSIX}, writers: 13, osts: 6, mb: 1},
			{build: func(w *mpisim.World, fs *pfs.FileSystem) (iomethod.Method, error) {
				return posix.New(w, fs, posix.Config{NoFlush: true})
			}, writers: 13, osts: 6, mb: 1, slow: 0.15},
		},
		MethodStaging: {
			{opt: Options{Method: MethodStaging, StagingNodes: 3}, writers: 12, osts: 4, mb: 2},
			{opt: Options{Method: MethodStaging, StagingNodes: 4, StagingBufferBytes: 4 * pfs.MB, StagingLeastLoaded: true},
				writers: 16, osts: 6, mb: 2, slow: 0.15},
		},
	}
	sawAdaptive, sawDrain := false, false
	for _, m := range []Method{MethodMPI, MethodAdaptive, MethodPOSIX, MethodStaging} {
		for ci, tc := range cases[m] {
			t.Run(fmt.Sprintf("%s/case%d", m, ci), func(t *testing.T) {
				g := runIdentityCase(t, tc, false)
				c := runIdentityCase(t, tc, true)
				if !reflect.DeepEqual(g, c) {
					t.Fatalf("engines diverge:\ngoroutine: %+v\ncont:      %+v", g, c)
				}
				if g.errs != 0 {
					t.Fatalf("%d ranks failed the step", g.errs)
				}
				if g.res.AdaptiveWrites > 0 {
					sawAdaptive = true
				}
				if g.res.DrainElapsed > g.res.Elapsed && g.res.Elapsed > 0 {
					sawDrain = true
				}
			})
		}
	}
	if !sawAdaptive {
		t.Error("no case exercised an adaptive (redirected) write")
	}
	if !sawDrain {
		t.Error("no staging case drained after its ranks returned")
	}
}
