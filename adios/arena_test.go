package adios

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/cluster"
	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// Step results outlive their step. A transport may recycle its step-private
// state (rank machines, pumps, scratch) once every rank has returned, so
// these tests pin what a caller may keep: a StepResult — its WriterTimes
// and its global index — stays exactly what its own step produced however
// many steps run on the world afterwards, and a CloseCont still reports
// its own step after another step has started.

// resultSnap is a deep copy of everything a caller reads from a result.
type resultSnap struct {
	writerTimes []float64
	elapsed     float64
	totalBytes  float64
	indexBytes  float64
	adaptive    int
	files       int
	lookups     []bp.Location // Lookup(var, rank) for every var and rank
	encoded     []byte        // the global index, encoded
}

func snapResult(t *testing.T, res *StepResult, ranks int, vars []string) resultSnap {
	t.Helper()
	s := resultSnap{
		writerTimes: append([]float64(nil), res.WriterTimes...),
		elapsed:     res.Elapsed,
		totalBytes:  res.TotalBytes,
		indexBytes:  res.IndexBytes,
		adaptive:    res.AdaptiveWrites,
		files:       res.Files,
	}
	g := res.Index()
	if g == nil {
		t.Fatal("step produced no global index")
	}
	for _, v := range vars {
		for r := 0; r < ranks; r++ {
			loc, ok := g.Lookup(v, int32(r))
			if !ok {
				t.Fatalf("no index entry for %s of rank %d", v, r)
			}
			loc.Entry.Dims = append([]uint64(nil), loc.Entry.Dims...)
			s.lookups = append(s.lookups, loc)
		}
	}
	enc, err := g.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s.encoded = enc
	return s
}

func (s resultSnap) diff(o resultSnap) string {
	switch {
	case !reflect.DeepEqual(s.writerTimes, o.writerTimes):
		return "WriterTimes changed"
	case s.elapsed != o.elapsed || s.totalBytes != o.totalBytes || s.indexBytes != o.indexBytes:
		return fmt.Sprintf("totals changed: %v/%v/%v -> %v/%v/%v",
			s.elapsed, s.totalBytes, s.indexBytes, o.elapsed, o.totalBytes, o.indexBytes)
	case s.adaptive != o.adaptive || s.files != o.files:
		return "counters changed"
	case !reflect.DeepEqual(s.lookups, o.lookups):
		return "Lookup results changed"
	case !bytes.Equal(s.encoded, o.encoded):
		return "encoded global index changed"
	}
	return ""
}

// arenaData is rank r's output in step k: sizes and dims differ per step so
// a result aliasing a later step's state cannot pass for its own.
func arenaData(r, k int) iomethod.RankData {
	mb := 16 * int64(pfs.MB)
	return iomethod.RankData{Vars: []iomethod.VarSpec{
		{Name: "rho", Bytes: mb * int64(1+(r+k)%3), Dims: []uint64{uint64(8 + k), 8, 8}, Min: float64(k), Max: float64(k + r)},
		{Name: "phi", Bytes: mb * int64(2+k), Dims: []uint64{4, uint64(4 + r)}, Min: -1, Max: float64(r)},
	}}
}

var arenaVars = []string{"rho", "phi"}

// TestStepArenaSequentialSteps runs two sequential steps through one IO and
// then a third through a second IO of the same method on the same world,
// with a barrier between steps so each starts only after every rank left
// the previous one. Every step's result must read exactly as it did when
// its step finished.
func TestStepArenaSequentialSteps(t *testing.T) {
	const ranks = 16
	for _, m := range []Method{MethodMPI, MethodAdaptive} {
		t.Run(string(m), func(t *testing.T) {
			c := cluster.Jaguar(cluster.Config{Seed: 3, NumOSTs: 8})
			defer c.Shutdown()
			c.SlowOST(1, 0.05)
			w := c.NewWorld(ranks)
			opt := Options{Method: m, OSTs: []int{0, 1, 2, 3}}
			io1, err := NewIO(c, w, opt)
			if err != nil {
				t.Fatal(err)
			}
			io2, err := NewIO(c, w, opt)
			if err != nil {
				t.Fatal(err)
			}
			ios := []*IO{io1, io1, io2}
			results := make([]*StepResult, len(ios))
			snaps := make([]resultSnap, len(ios))
			j := w.Launch(func(r *cluster.Rank) {
				for k, io := range ios {
					f := io.Open(r, fmt.Sprintf("seq%d", k))
					f.WriteData(arenaData(r.Rank(), k))
					res, err := f.Close()
					if err != nil {
						t.Error(err)
						return
					}
					r.Barrier()
					if r.Rank() == 0 {
						results[k] = res
						snaps[k] = snapResult(t, res, ranks, arenaVars)
					}
					r.Barrier()
				}
			})
			c.RunUntilDone(j)
			if !j.Done() {
				t.Fatal("ranks did not finish")
			}
			for k, res := range results {
				if d := snaps[k].diff(snapResult(t, res, ranks, arenaVars)); d != "" {
					t.Errorf("step %d result after later steps: %s", k, d)
				}
			}
			if m == MethodAdaptive && results[0].AdaptiveWrites == 0 {
				t.Error("no adaptive write redirected: the pin misses the redirect path")
			}
		})
	}
}

// arenaRank drives one step through a CloseCont the test owns, so the test
// can read that CloseCont again after later steps.
type arenaRank struct {
	pc   int
	io   *IO
	step int
	cc   *CloseCont
}

func (b *arenaRank) StepRank(r *cluster.Rank, c *simkernel.ContProc) bool {
	if b.pc == 0 {
		f := b.io.Open(r, fmt.Sprintf("late%d", b.step))
		f.WriteData(arenaData(r.Rank(), b.step))
		f.BeginCloseCont(b.cc)
		b.pc = 1
	}
	return b.cc.Step(c)
}

// TestStepArenaLateCloseContRead reads each rank's CloseCont result only
// after a second step (on a second CloseCont) has started and finished on
// the same world: it must still report the first step's result and error.
func TestStepArenaLateCloseContRead(t *testing.T) {
	const ranks = 16
	for _, m := range []Method{MethodMPI, MethodAdaptive} {
		t.Run(string(m), func(t *testing.T) {
			c := cluster.Jaguar(cluster.Config{Seed: 4, NumOSTs: 8})
			defer c.Shutdown()
			c.SlowOST(2, 0.05)
			w := c.NewWorld(ranks)
			io, err := NewIO(c, w, Options{Method: m, OSTs: []int{0, 1, 2, 3}})
			if err != nil {
				t.Fatal(err)
			}
			first := make([]CloseCont, ranks)
			second := make([]CloseCont, ranks)
			run := func(step int, ccs []CloseCont) {
				j := w.LaunchCont(func(i int) cluster.RankCont {
					return &arenaRank{io: io, step: step, cc: &ccs[i]}
				})
				c.Run()
				if !j.Done() {
					t.Fatalf("step %d did not complete", step)
				}
			}
			run(0, first)
			res0, err := first[0].Result()
			if err != nil {
				t.Fatal(err)
			}
			want := snapResult(t, res0, ranks, arenaVars)
			run(1, second)
			res1, err := second[0].Result()
			if err != nil {
				t.Fatal(err)
			}
			if res1.StepResult == res0.StepResult {
				t.Fatal("two steps share one StepResult")
			}
			for i := range first {
				res, err := first[i].Result()
				if err != nil {
					t.Fatalf("rank %d: late read: %v", i, err)
				}
				if res.StepResult != res0.StepResult {
					t.Fatalf("rank %d: late read returns another step's result", i)
				}
				if d := want.diff(snapResult(t, res, ranks, arenaVars)); d != "" {
					t.Fatalf("rank %d: late read: %s", i, d)
				}
			}
		})
	}
}
