package pfs

import (
	"math"
	"slices"
	"testing"

	"repro/internal/simkernel"
)

// An OST keeps its flush waiters as a FIFO: each joins at the current
// ingestedTotal, which never decreases, so the head holds the earliest
// watermark, the boundary reads it from there and a completion wakes the
// satisfied prefix. These tests pin that against a linear-scan reference —
// wake a waiter at the first instant the drain reaches its watermark, in
// join order among waiters woken together, and plan the boundary from the
// minimum over every queued watermark.

// fifoWake is one flusher's record.
type fifoWake struct {
	id        int
	watermark float64 // the watermark it queued with (-1: returned at once)
	joined    int     // join order among queued flushers
	at        float64 // wake time, seconds
}

type fifoLog struct {
	joins int
	wakes []fifoWake
}

// fifoFlusher issues one flush at its spawn time and logs its wake.
type fifoFlusher struct {
	pc  int
	id  int
	o   *OST
	op  ostFlush
	rec fifoWake
	log *fifoLog
}

func (f *fifoFlusher) Step(c *simkernel.ContProc) bool {
	if f.pc == 0 {
		f.rec = fifoWake{id: f.id, watermark: -1, joined: -1}
		f.op.begin(f.o)
		if !f.op.step(c) {
			f.rec.watermark = f.o.waiters.At(f.o.waiters.Len() - 1).watermark
			f.rec.joined = f.log.joins
			f.log.joins++
			f.pc = 1
			return false
		}
	} else if !f.op.step(c) {
		return false
	}
	f.rec.at = c.Now().Seconds()
	f.log.wakes = append(f.log.wakes, f.rec)
	return true
}

// fifoProbe checks the planned boundary against a linear scan of the
// queued watermarks at its spawn time.
type fifoProbe struct {
	t      *testing.T
	o      *OST
	minW   float64
	queued int
}

func (p *fifoProbe) Step(c *simkernel.ContProc) bool {
	o := p.o
	minW := math.Inf(1)
	for i := 0; i < o.waiters.Len(); i++ {
		w := o.waiters.At(i).watermark
		if i > 0 && w < o.waiters.At(i-1).watermark {
			p.t.Errorf("t=%v: waiter %d watermark %v below its predecessor's", c.Now().Seconds(), i, w)
		}
		minW = math.Min(minW, w)
	}
	p.minW, p.queued = minW, o.waiters.Len()
	if p.queued == 0 {
		return true
	}
	if head := o.waiters.At(0).watermark; head != minW {
		p.t.Errorf("t=%v: head watermark %v, scan minimum %v", c.Now().Seconds(), head, minW)
	}
	// No write is in flight, so the earliest watermark is the only
	// boundary: recompute planned it from the state of the last update.
	if len(o.flows) != 0 {
		p.t.Fatalf("t=%v: probe expects no flows, have %d", c.Now().Seconds(), len(o.flows))
	}
	next := (minW - o.drainedTotal) / o.drainRate
	if next < 1e-9 {
		next = 1e-9
	}
	if want := o.lastUpdate + simkernel.FromSeconds(next); !o.boundary.Active() || o.boundaryAt != want {
		p.t.Errorf("t=%v: boundary at %v (active %v), linear scan plans %v",
			c.Now().Seconds(), o.boundaryAt, o.boundary.Active(), want)
	}
	return true
}

// TestFlushWaitersFIFO queues flushers behind one 600-byte write — some
// at the same instant, so their watermarks tie — and checks every wake
// time and the wake order against the linear-scan reference, and the
// planned boundary at three instants when several waiters are queued.
func TestFlushWaitersFIFO(t *testing.T) {
	cfg := flatConfig()
	cfg.ClientCap = 200 // ingest 200 B/s against a 100 B/s drain
	k := simkernel.New()
	fs := MustNew(k, cfg)
	o := fs.OST(0)
	k.Spawn("w", func(p *simkernel.Proc) { o.Write(p, 600) })

	log := &fifoLog{}
	joinAt := []float64{1, 2, 2, 1.5, 2.5, 4, 4, 4, 7}
	for i, at := range joinAt {
		k.SpawnContAt(simkernel.FromSeconds(at), "flush", &fifoFlusher{id: i, o: o, log: log})
	}
	probeAt := []float64{3.5, 4.5, 5.5}
	probes := make([]*fifoProbe, len(probeAt))
	for i, at := range probeAt {
		probes[i] = &fifoProbe{t: t, o: o}
		k.SpawnContAt(simkernel.FromSeconds(at), "probe", probes[i])
	}
	k.Run()
	k.Shutdown()

	if len(log.wakes) != len(joinAt) {
		t.Fatalf("%d of %d flushers woke", len(log.wakes), len(joinAt))
	}
	// Reference: drainedTotal grows at the disk rate from the first byte
	// until the cache empties at 600 bytes, so a queued waiter wakes when
	// the drain reaches its watermark; flushers arriving to a clean cache
	// return at once.
	want := make([]fifoWake, 0, len(log.wakes))
	for _, w := range log.wakes {
		r := w
		r.at = joinAt[w.id]
		if drainAt := w.watermark / cfg.DiskBW; drainAt > r.at {
			r.at = drainAt
		}
		want = append(want, r)
	}
	for i, w := range log.wakes {
		if math.Abs(w.at-want[i].at) > 1e-6 {
			t.Errorf("flusher %d (watermark %v) woke at %v, reference %v", w.id, w.watermark, w.at, want[i].at)
		}
	}
	// Order: the linear scan wakes every satisfied waiter in join order,
	// so wakes are sorted by reference time, ties by join order.
	sorted := slices.Clone(want)
	slices.SortStableFunc(sorted, func(a, b fifoWake) int {
		if d := a.at - b.at; math.Abs(d) > 1e-6 {
			if d < 0 {
				return -1
			}
			return 1
		}
		return a.joined - b.joined
	})
	for i := range sorted {
		if sorted[i].id != log.wakes[i].id {
			t.Fatalf("wake order %v, reference %v", ids(log.wakes), ids(sorted))
		}
	}
	// The scenario must exercise ties and a waiter that never queued.
	ties, clean := 0, 0
	for i, w := range log.wakes {
		if w.watermark < 0 {
			clean++
		} else if i > 0 && w.watermark == log.wakes[i-1].watermark {
			ties++
			// One completion wakes the whole satisfied prefix.
			if w.at != log.wakes[i-1].at {
				t.Errorf("tied flushers %d and %d woke at %v and %v", log.wakes[i-1].id, w.id, log.wakes[i-1].at, w.at)
			}
		}
	}
	if ties < 2 || clean != 1 {
		t.Errorf("scenario drifted: %d tied wakes, %d clean flushes", ties, clean)
	}
	for i, p := range probes {
		if p.queued < 2 {
			t.Errorf("probe at %v saw %d queued waiters; want several", probeAt[i], p.queued)
		}
	}
}

func ids(ws []fifoWake) []int {
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.id
	}
	return out
}
