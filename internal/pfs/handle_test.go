package pfs

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/simkernel"
)

// Handle semantics of the namespace: which handles share the set of
// targets a flush waits on, what a re-create and a reset leave behind, and
// the order a flush visits its targets in.

// handleConfig is flatConfig on six targets with a client cap at the
// ingest rate, so a write outpaces the drain and leaves dirty cache for a
// flush to wait on.
func handleConfig() Config {
	cfg := flatConfig()
	cfg.NumOSTs = 6
	cfg.ClientCap = 400
	return cfg
}

// flushOrder returns the targets a flush through f would visit, in visit
// order.
func flushOrder(f *File) []int {
	var op FlushOp
	op.BeginFlush(f)
	return append([]int{}, op.osts...)
}

// dirty reports whether any target still holds undrained bytes.
func dirty(fs *FileSystem) bool {
	return fs.TotalBytesIngested()-fs.TotalBytesDrained() > 1e-3
}

// TestOpenedHandleSharesTouchedSet pins that an opened handle and its
// creator share one touched set: a flush through either waits on the
// targets written through the other.
func TestOpenedHandleSharesTouchedSet(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, handleConfig())
	k.Spawn("w", func(p *simkernel.Proc) {
		c, err := fs.Create(p, "a", Layout{OSTs: []int{2, 0, 3}, StripeSize: 100})
		if err != nil {
			t.Error(err)
			return
		}
		h, err := fs.Open(p, "a")
		if err != nil {
			t.Error(err)
			return
		}
		// Stripe 0 lives on target 2: written through the creator,
		// flushed through the opened handle.
		if err := c.WriteAt(p, 0, 100); err != nil {
			t.Error(err)
			return
		}
		if !dirty(fs) {
			t.Error("write left no dirty cache; the flush below would prove nothing")
		}
		if got := flushOrder(h); !reflect.DeepEqual(got, []int{2}) {
			t.Errorf("opened handle flushes %v, want the creator's [2]", got)
		}
		h.Flush(p)
		if dirty(fs) {
			t.Error("flush through the opened handle did not wait on the creator's target")
		}
		// Stripe 1 lives on target 0: written through the opened handle,
		// flushed through the creator.
		if err := h.WriteAt(p, 100, 100); err != nil {
			t.Error(err)
			return
		}
		if !dirty(fs) {
			t.Error("write left no dirty cache; the flush below would prove nothing")
		}
		c.Flush(p)
		if dirty(fs) {
			t.Error("flush through the creator did not wait on the opened handle's target")
		}
		if got, want := flushOrder(c), []int{0, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("creator flushes %v, want %v", got, want)
		}
		if got, want := flushOrder(h), []int{0, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("opened handle flushes %v, want %v", got, want)
		}
		// A handle opened after the writes shares the same set.
		late, err := fs.Open(p, "a")
		if err != nil {
			t.Error(err)
			return
		}
		if got, want := flushOrder(late), []int{0, 2}; !reflect.DeepEqual(got, want) {
			t.Errorf("late-opened handle flushes %v, want %v", got, want)
		}
		if late.Size() != 200 {
			t.Errorf("late-opened handle size %d, want 200", late.Size())
		}
	})
	k.Run()
}

// TestRecreateStartsEmpty pins that creating an existing name yields a
// fresh handle with size 0 and no touched targets, that opens after the
// re-create see the new file, and that handles to the old file keep
// theirs.
func TestRecreateStartsEmpty(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, handleConfig())
	k.Spawn("w", func(p *simkernel.Proc) {
		old, err := fs.Create(p, "a", Layout{OSTs: []int{4, 1}, StripeSize: 100})
		if err != nil {
			t.Error(err)
			return
		}
		if err := old.WriteAt(p, 0, 200); err != nil {
			t.Error(err)
			return
		}
		old.Close(p)
		fresh, err := fs.Create(p, "a", Layout{OSTs: []int{5}})
		if err != nil {
			t.Error(err)
			return
		}
		if fresh.Size() != 0 {
			t.Errorf("re-created handle size %d, want 0", fresh.Size())
		}
		if got := flushOrder(fresh); len(got) != 0 {
			t.Errorf("re-created handle flushes %v, want none", got)
		}
		h, err := fs.Open(p, "a")
		if err != nil {
			t.Error(err)
			return
		}
		if h.Size() != 0 || len(flushOrder(h)) != 0 {
			t.Errorf("open after re-create: size %d, flushes %v; want 0 and none", h.Size(), flushOrder(h))
		}
		if got, want := flushOrder(old), []int{1, 4}; !reflect.DeepEqual(got, want) {
			t.Errorf("old handle flushes %v, want %v", got, want)
		}
		if old.Size() != 200 {
			t.Errorf("old handle size %d, want 200", old.Size())
		}
	})
	k.Run()
}

// TestCreateAfterResetStartsEmpty pins that files created after a Reset,
// in whatever storage the previous run's files used, start with no size
// and no touched targets.
func TestCreateAfterResetStartsEmpty(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	cfg := handleConfig()
	fs := MustNew(k, cfg)
	const n = 40
	k.Spawn("before", func(p *simkernel.Proc) {
		for i := 0; i < n; i++ {
			f, err := fs.Create(p, fmt.Sprintf("f%d", i), Layout{OSTs: []int{(i + 1) % 6, i % 6}, StripeSize: 100})
			if err != nil {
				t.Error(err)
				return
			}
			if err := f.WriteAt(p, 0, 200); err != nil {
				t.Error(err)
				return
			}
			f.Close(p)
		}
	})
	k.Run()
	k.Reset()
	if err := fs.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	k.Spawn("after", func(p *simkernel.Proc) {
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("g%d", i)
			if i%2 == 0 {
				name = fmt.Sprintf("f%d", i) // a name the previous run used
			}
			f, err := fs.Create(p, name, Layout{OSTs: []int{i % 6}})
			if err != nil {
				t.Error(err)
				return
			}
			if f.Size() != 0 || len(flushOrder(f)) != 0 {
				t.Errorf("%s after reset: size %d, flushes %v; want 0 and none", name, f.Size(), flushOrder(f))
			}
			if err := f.WriteAt(p, 0, 50); err != nil {
				t.Error(err)
				return
			}
			if got := flushOrder(f); !reflect.DeepEqual(got, []int{i % 6}) {
				t.Errorf("%s after reset flushes %v, want [%d]", name, got, i%6)
			}
			if f.Size() != 50 {
				t.Errorf("%s after reset: size %d, want 50", name, f.Size())
			}
		}
	})
	k.Run()
}

// TestFlushVisitsTargetsAscending pins that a flush visits its touched
// targets in ascending index order, whatever order the writes reached
// them in, and that it waits on every one of them.
func TestFlushVisitsTargetsAscending(t *testing.T) {
	k := simkernel.New()
	defer k.Shutdown()
	fs := MustNew(k, handleConfig())
	k.Spawn("w", func(p *simkernel.Proc) {
		f, err := fs.Create(p, "a", Layout{OSTs: []int{5, 1, 3, 0}, StripeSize: 100})
		if err != nil {
			t.Error(err)
			return
		}
		// Stripes 2, 0, 1: targets 3, 5, 1 in write order.
		for _, stripe := range []int64{2, 0, 1} {
			if err := f.WriteAt(p, stripe*100, 100); err != nil {
				t.Error(err)
				return
			}
		}
		if got, want := flushOrder(f), []int{1, 3, 5}; !reflect.DeepEqual(got, want) {
			t.Errorf("flush visits %v, want %v", got, want)
		}
		f.Flush(p)
		if dirty(fs) {
			t.Error("flush returned with dirty cache on a touched target")
		}
		if d := fs.TotalBytesDrained(); math.Abs(d-300) > 1e-3 {
			t.Errorf("drained %v bytes, want 300", d)
		}
	})
	k.Run()
}
