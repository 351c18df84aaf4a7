package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bp"
	"repro/internal/iomethod"
	"repro/internal/machines"
	"repro/internal/mpisim"
	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// arenaStep runs one adaptive step over the first targets storage targets
// on w, with target 1 slowed so the coordinator redirects writes, and
// returns the result.
func arenaStep(t *testing.T, k *simkernel.Kernel, fs *pfs.FileSystem, w *mpisim.World, targets int, name string) *iomethod.StepResult {
	t.Helper()
	a, err := New(w, fs, Config{OSTs: seq(targets)})
	if err != nil {
		t.Fatal(err)
	}
	var res *iomethod.StepResult
	wg := w.Launch("app", func(r *mpisim.Rank) {
		data := iomethod.RankData{Vars: []iomethod.VarSpec{
			{Name: "rho", Bytes: 32 * int64(pfs.MB), Dims: []uint64{4, 4}, Min: -1, Max: 1},
			{Name: "phi", Bytes: int64(pfs.MB) * int64(1+r.Rank()%3), Dims: []uint64{8}, Min: 0, Max: 2},
		}}
		rr, err := a.WriteStep(r, name, data)
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
	return res
}

// TestStepArenaRecyclesState pins the arena's reuse rule: a finished step
// parks its state on the world, the next step of the same shape — even
// from a new Adaptive — takes that same state back, and a step whose group
// plan differs builds its own. Every step's local indices, redirected
// writers included, are carved from one exactly full slab.
func TestStepArenaRecyclesState(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 12
	fs := pfs.MustNew(k, fsCfg)
	fs.OSTs[1].SetSlowFactor(0.1)
	const W = 32
	w := mpisim.NewWorld(k, W, mpisim.Options{})
	parked := func() *stepState {
		st, _ := w.Unpark(arenaKey{}).(*stepState)
		if st == nil {
			t.Fatal("no step state parked after the step")
		}
		w.Park(arenaKey{}, st)
		return st
	}

	res := arenaStep(t, k, fs, w, 4, "a")
	first := parked()
	if res.AdaptiveWrites == 0 {
		t.Fatal("no redirected write: the check misses the cross-group index path")
	}
	checkSlab(t, res, first, W)

	res = arenaStep(t, k, fs, w, 4, "b")
	if st := parked(); st != first {
		t.Error("a step of the same shape built new state instead of reusing the parked one")
	}
	checkSlab(t, res, first, W)

	res = arenaStep(t, k, fs, w, 8, "c")
	st := parked()
	if st == first || st.gsize != W/8 {
		t.Errorf("a step with 8 groups reused the 4-group state (gsize %d)", st.gsize)
	}
	checkSlab(t, res, st, W)
}

// checkSlab checks that the step's local indices tile st's index slab —
// the last step's, still referenced by the parked state — exactly once,
// each local sorted and capped so it cannot grow into its neighbour, and
// that every writer's two records are there once.
func checkSlab(t *testing.T, res *iomethod.StepResult, st *stepState, W int) {
	t.Helper()
	slab := st.entries
	if len(slab) != 2*W || cap(slab) != 2*W {
		t.Fatalf("slab len %d cap %d, want exactly %d", len(slab), cap(slab), 2*W)
	}
	at := make(map[*bp.VarEntry]int, len(slab))
	for i := range slab {
		at[&slab[i]] = i
	}
	covered := make([]int, len(slab))
	seen := map[string]int{}
	for _, li := range res.Global.Locals {
		if len(li.Entries) == 0 {
			continue
		}
		if len(li.Entries) != cap(li.Entries) {
			t.Errorf("%s: len %d, cap %d", li.File, len(li.Entries), cap(li.Entries))
		}
		off, ok := at[&li.Entries[0]]
		if !ok {
			t.Fatalf("%s: entries outside the step's slab", li.File)
		}
		for i := range li.Entries {
			e := &li.Entries[i]
			if e != &slab[off+i] {
				t.Fatalf("%s: entries not contiguous in the slab", li.File)
			}
			covered[off+i]++
			seen[fmt.Sprintf("%s/%d", e.Name, e.WriterRank)]++
			if i > 0 && (li.Entries[i-1].Name > e.Name || li.Entries[i-1].Name == e.Name && li.Entries[i-1].WriterRank > e.WriterRank) {
				t.Errorf("%s: entries out of canonical order at %d", li.File, i)
			}
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("slab entry %d covered by %d locals", i, n)
		}
	}
	if len(seen) != 2*W {
		t.Errorf("%d distinct records, want %d", len(seen), 2*W)
	}
}

// TestStepArenaIndexOnce pins the always-on exactly-once index check: a
// second index body for one writer panics at the SC, and C's gather
// panics when a writer was never indexed or the slab is not exactly full.
func TestStepArenaIndexOnce(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fsCfg := machines.Jaguar(7).FS
	fsCfg.NumOSTs = 4
	fs := pfs.MustNew(k, fsCfg)
	w := mpisim.NewWorld(k, 4, mpisim.Options{})
	a, err := New(w, fs, Config{OSTs: seq(2)})
	if err != nil {
		t.Fatal(err)
	}
	st := a.getStep("once")
	for r := range st.dataOf {
		st.dataOf[r] = iomethod.RankData{Vars: []iomethod.VarSpec{{Name: "v", Bytes: 1}}}
	}
	st.sizeIndex()
	sc := &st.scs[0]
	sc.st, sc.g = st, 0
	body := &scMsg{kind: kindIndexBody, writer: 1}
	sc.handle(body)
	wantPanic(t, "second index body", func() { sc.handle(body) })

	wantPanic(t, "never indexed", st.checkIndexed)
	for r := range st.indexed {
		st.indexed[r] = true
	}
	wantPanic(t, "index slab holds 0 of 4", st.checkIndexed)
}

func wantPanic(t *testing.T, substr string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want one mentioning %q", substr)
		}
		if msg, _ := r.(string); !strings.Contains(msg, substr) {
			t.Fatalf("panic %v; want one mentioning %q", r, substr)
		}
	}()
	fn()
}
