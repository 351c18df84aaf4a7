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

// TestStepArenaSplitFiles runs MPI-IO steps with changing cohort counts on
// one world, resetting it between steps as a pooled world is, so the step
// arena sees a different shape, the same shape twice, and a shape it held
// before. Every step must equal the same step on a fresh world.
func TestStepArenaSplitFiles(t *testing.T) {
	const W = 13
	fsCfg := machines.Jaguar(5).FS
	fsCfg.NumOSTs = 6
	step := func(k *simkernel.Kernel, fs *pfs.FileSystem, w *mpisim.World, split, i int) (iomethod.StepResult, simkernel.Time) {
		fs.OST(1).SetSlowFactor(0.3)
		m, err := New(w, fs, Config{SplitFiles: split})
		if err != nil {
			t.Fatal(err)
		}
		var res *iomethod.StepResult
		wg := w.Launch("app", func(r *mpisim.Rank) {
			data := iomethod.RankData{Vars: []iomethod.VarSpec{
				{Name: "u", Bytes: int64(pfs.MB) * int64(1+(r.Rank()+i)%4), Dims: []uint64{uint64(r.Rank())}, Min: 0, Max: 1},
			}}
			rr, err := m.WriteStep(r, fmt.Sprintf("s%d", i), data)
			if err != nil {
				t.Error(err)
				return
			}
			res = rr
		})
		k.Run()
		if wg.Count() != 0 {
			t.Fatalf("%d ranks never finished", wg.Count())
		}
		return *res, k.Now()
	}

	k := simkernel.New()
	defer k.Shutdown()
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, W, mpisim.Options{})
	for i, split := range []int{1, 3, 3, 1, 2, 3} {
		if i > 0 {
			k.Reset()
			if err := fs.Reset(fsCfg); err != nil {
				t.Fatal(err)
			}
			w.Reset(mpisim.Options{})
		}
		got, gotEnd := step(k, fs, w, split, i)

		fk := simkernel.New()
		want, wantEnd := step(fk, pfs.MustNew(fk, fsCfg), mpisim.NewWorld(fk, W, mpisim.Options{}), split, i)
		fk.Shutdown()
		if gotEnd != wantEnd || !reflect.DeepEqual(got, want) {
			t.Errorf("step %d (split %d): reused world diverged from a fresh one:\nreused %+v at %v\nfresh  %+v at %v",
				i, split, got, gotEnd, want, wantEnd)
		}
	}
}
