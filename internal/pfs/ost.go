package pfs

import (
	"fmt"
	"math"

	"repro/internal/simkernel"
)

// completionEps is the byte threshold below which a flow's residue is
// considered complete; it absorbs floating-point drift from piecewise-
// constant rate integration.
const completionEps = 1e-3

// flow is one in-progress write stream on an OST. Completed flows are
// recycled through the OST's free list, so steady-state write traffic does
// not allocate.
type flow struct {
	remaining float64 // bytes left to ingest
	rate      float64 // current ingest rate, bytes/sec
	cap       float64 // per-stream cap for this flow
	done      func()  // invoked (in kernel context) at completion
}

// flushWaiter waits until the OST's cumulative drained byte count reaches a
// watermark (FIFO cache drain means every byte ingested before the flush
// call is on disk by then).
type flushWaiter struct {
	watermark float64
	wake      func()
}

// OSTStats aggregates per-target counters for experiment analysis.
type OSTStats struct {
	BytesIngested  float64
	BytesDrained   float64
	WritesStarted  int
	WritesFinished int
	MaxConcurrency int
	// WritesFailed and ReadsFailed count client operations abandoned with
	// ErrTargetDown because this target was Dead.
	WritesFailed int
	ReadsFailed  int
}

// OST models one object storage target as a fluid-flow server with a
// write-back cache. All methods must be called in kernel or process context
// of the owning kernel.
type OST struct {
	ID int //repro:reset-skip identity, fixed at construction

	k   *simkernel.Kernel
	cfg *Config //repro:reset-skip aliases &FileSystem.Cfg, which Reset reassigns in place

	flows     []*flow
	freeFlows []*flow // recycled flow records
	// waiters is a FIFO in watermark order: a waiter joins at the current
	// ingestedTotal, which never decreases, so the head holds the earliest
	// watermark and the satisfied waiters are always a prefix.
	waiters simkernel.Ring[flushWaiter]

	// External interference knobs (driven by the interference package).
	extStreams   int     // competing external write streams on this target
	slowFactor   float64 // disk-side degradation multiplier in (0,1]
	ingestFactor float64 // network/OSS-side degradation multiplier in (0,1]

	// Health lifecycle (driven by the failure injector; see health.go).
	health       HealthState
	healthFactor float64                  // health-driven disk multiplier in (0,1]
	stateSince   simkernel.Time           // when the current health state was entered
	stateSecs    [NumHealthStates]float64 // completed residence time per state, seconds
	downErr      error                    //repro:reset-skip immutable identity error, built at construction

	// Fluid state, valid as of lastUpdate.
	cacheLevel    float64 // dirty bytes in cache
	ingestedTotal float64 // cumulative bytes accepted
	drainedTotal  float64 // cumulative bytes written to disk
	drainRate     float64 // current drain bytes/sec (for our data)
	effCache      float64 // cache capacity available to us (shrinks under external load)
	lastUpdate    simkernel.Time

	boundary   simkernel.Timer
	boundaryAt simkernel.Time // absolute deadline of the pending boundary timer
	onBoundary func()         //repro:reset-skip cached boundary callback, built once per OST

	// Replan cache: planValid is invalidated by any membership or knob
	// change; while it holds and the cache-full regime is unchanged, a
	// boundary event reuses the planned rates instead of re-running the
	// water-fill (the common case for flush-watermark boundaries).
	planValid     bool
	planCacheFull bool
	planInflow    float64 // sum of planned per-flow rates

	// Water-fill scratch buffers, owned by the OST so replanning under
	// mixed per-flow caps stays allocation-free.
	rateScratch  []float64 //repro:reset-skip scratch, fully overwritten by each water-fill
	unsatScratch []int     //repro:reset-skip scratch, fully overwritten by each water-fill

	// jobAcct attributes traffic per job id (index 0 = unattributed); see
	// jobacct.go.
	jobAcct []JobIO

	Stats OSTStats
}

func newOST(k *simkernel.Kernel, cfg *Config, id int) *OST {
	o := &OST{ID: id, k: k, cfg: cfg, slowFactor: 1, ingestFactor: 1,
		healthFactor: 1, stateSince: k.Now(),
		downErr:  &TargetDownError{OST: id},
		effCache: cfg.CacheBytes, lastUpdate: k.Now()}
	o.onBoundary = func() {
		o.boundary = simkernel.Timer{}
		o.advance()
		o.recompute()
	}
	return o
}

// reset returns the OST to its freshly constructed state for a new
// configuration, recycling the flow records, waiter ring and water-fill
// scratch. The owning kernel has already been Reset, so pending boundary
// timers are gone and the clock is back at zero.
func (o *OST) reset() {
	for i, f := range o.flows {
		*f = flow{}
		o.freeFlows = append(o.freeFlows, f)
		o.flows[i] = nil
	}
	o.flows = o.flows[:0]
	o.waiters.Reset()
	o.extStreams = 0
	o.slowFactor = 1
	o.ingestFactor = 1
	o.health = Healthy
	o.healthFactor = 1
	o.stateSince = o.k.Now()
	for i := range o.stateSecs {
		o.stateSecs[i] = 0
	}
	o.cacheLevel = 0
	o.ingestedTotal = 0
	o.drainedTotal = 0
	o.drainRate = 0
	o.effCache = o.cfg.CacheBytes
	o.lastUpdate = o.k.Now()
	o.boundary = simkernel.Timer{}
	o.boundaryAt = 0
	o.planValid = false
	o.planCacheFull = false
	o.planInflow = 0
	for i := range o.jobAcct {
		o.jobAcct[i] = JobIO{}
	}
	o.jobAcct = o.jobAcct[:0]
	o.Stats = OSTStats{}
}

// ExternalStreams returns the current external competing stream count.
func (o *OST) ExternalStreams() int { return o.extStreams }

// SlowFactor returns the current disk-side degradation multiplier.
func (o *OST) SlowFactor() float64 { return o.slowFactor }

// IngestFactor returns the current network-side degradation multiplier.
func (o *OST) IngestFactor() float64 { return o.ingestFactor }

// SetIngestFactor changes the network/OSS-side degradation multiplier
// (clamped to (0, 1]): machine-wide backend load slows every client stream,
// including cache-absorbed writes that never touch the disk.
func (o *OST) SetIngestFactor(f float64) {
	if f <= 0 {
		f = 1e-3
	}
	if f > 1 {
		f = 1
	}
	if f == o.ingestFactor {
		return
	}
	o.advance()
	o.ingestFactor = f
	o.planValid = false
	o.recompute()
}

// CacheLevel returns the current dirty-byte count (advancing fluid state to
// the present first).
func (o *OST) CacheLevel() float64 {
	o.advance()
	return o.cacheLevel
}

// ActiveFlows returns the number of in-progress internal write streams.
func (o *OST) ActiveFlows() int { return len(o.flows) }

// SetExternalStreams changes the number of competing external streams and
// re-plans all in-progress flows.
func (o *OST) SetExternalStreams(m int) {
	if m < 0 {
		m = 0
	}
	if m == o.extStreams {
		return
	}
	o.advance()
	o.extStreams = m
	o.planValid = false
	o.recompute()
}

// SetSlowFactor changes the transient degradation multiplier (clamped to
// (0, 1]) and re-plans all in-progress flows.
func (o *OST) SetSlowFactor(s float64) {
	if s <= 0 {
		s = 1e-3
	}
	if s > 1 {
		s = 1
	}
	if s == o.slowFactor {
		return
	}
	o.advance()
	o.slowFactor = s
	o.planValid = false
	o.recompute()
}

// StartWrite begins ingesting bytes on this OST with the given per-stream
// cap (<=0 means the configured ClientCap) and calls done in kernel context
// when the final byte is accepted. It returns immediately; use Write for the
// blocking client-side call.
//
//repro:hotpath
func (o *OST) StartWrite(bytes float64, streamCap float64, done func()) {
	if bytes < 0 {
		panic("pfs: negative write size")
	}
	if streamCap <= 0 {
		streamCap = o.cfg.ClientCap
	}
	o.advance()
	var f *flow
	if n := len(o.freeFlows); n > 0 {
		f = o.freeFlows[n-1]
		o.freeFlows = o.freeFlows[:n-1]
		*f = flow{remaining: bytes, cap: streamCap, done: done}
	} else {
		f = &flow{remaining: bytes, cap: streamCap, done: done}
	}
	o.flows = append(o.flows, f)
	o.planValid = false
	o.Stats.WritesStarted++
	if len(o.flows) > o.Stats.MaxConcurrency {
		o.Stats.MaxConcurrency = len(o.flows)
	}
	o.recompute()
}

// Write blocks the calling process until bytes have been accepted by the
// OST (cache or disk). It includes the fixed per-operation latency. If the
// target is Dead when the request arrives, the call hangs for the
// configured DeadTimeout and returns ErrTargetDown.
//
//repro:hotpath
func (o *OST) Write(p *simkernel.Proc, bytes float64) error {
	var op OSTWriteOp
	op.BeginWrite(o, bytes)
	p.Await(op.Step)
	return op.err
}

// Flush blocks the calling process until every byte ingested by this OST
// before the call has been drained to disk (the explicit flush the paper
// inserts before close).
//
//repro:hotpath
func (o *OST) Flush(p *simkernel.Proc) {
	var op ostFlush
	op.begin(o)
	p.Await(op.step)
}

// effDisk evaluates the disk-efficiency curve for the current stream mix.
func (o *OST) effDisk(streams int) float64 { return o.cfg.DiskEff.Eval(streams) }

// effNet evaluates the network-efficiency curve for the current stream mix.
func (o *OST) effNet(streams int) float64 { return o.cfg.NetEff.Eval(streams) }

// plan computes, from current membership, the per-flow ingest rates and the
// drain rate. It returns (sumInflow, drain) and records the plan signature
// so unchanged boundary events can skip the next full replan.
//
//repro:hotpath
func (o *OST) plan() (sumInflow, drain float64) {
	n := len(o.flows)
	m := o.extStreams
	streams := n + m
	if streams < 1 {
		streams = 1
	}

	// Total disk bandwidth under the current interleave level, transient
	// slowness, and health state (a Rebuilding target's rebuild traffic
	// taxes the disk through healthFactor < 1; Healthy is exactly 1, so the
	// zero-failure plan is bit-identical to the pre-health model); our share
	// is proportional to our stream presence (a lone drainer still competes
	// with external streams).
	d := o.cfg.DiskBW * o.effDisk(streams) * o.slowFactor * o.healthFactor
	drainWeight := float64(n)
	if drainWeight < 1 {
		drainWeight = 1
	}
	ourDisk := d * drainWeight / (drainWeight + float64(m))

	// External streams keep their share of the write-back cache dirty with
	// their own data, so the capacity available for absorbing our bursts
	// shrinks proportionally. This is what makes a busy target slow even
	// for writes that would otherwise be cache-absorbed.
	o.effCache = o.cfg.CacheBytes / float64(1+m)

	o.planValid = true
	o.planCacheFull = o.cacheLevel >= o.effCache-completionEps

	if o.health == Dead {
		// A dead target neither accepts nor drains bytes: in-flight flows
		// stall at rate zero and resume when the target revives, like
		// Lustre clients blocking on a failed OST.
		for _, f := range o.flows {
			f.rate = 0
		}
		o.planInflow = 0
		return 0, 0
	}

	if n == 0 {
		o.planInflow = 0
		if o.cacheLevel > 0 {
			return 0, ourDisk
		}
		return 0, 0
	}

	// Network-side ingest available to our flows, degraded by machine-wide
	// backend load; the same factor caps each client stream.
	ing := o.cfg.IngestBW * o.effNet(streams) * o.ingestFactor
	ourIngest := ing * float64(n) / float64(n+m)

	budget := ourIngest
	if o.planCacheFull {
		// Cache cannot absorb: inflow throttles to the drain rate.
		budget = math.Min(ourIngest, ourDisk)
	}

	// Fair-share the budget across flows, respecting per-stream caps. The
	// overwhelmingly common case — every flow at the same cap (the
	// configured ClientCap) — has the closed form min(cap, budget/n) and
	// needs no water-filling iteration at all.
	uniform := true
	cap0 := o.flows[0].cap
	for _, f := range o.flows[1:] {
		if f.cap != cap0 {
			uniform = false
			break
		}
	}
	if uniform {
		share := budget / float64(n)
		r := cap0 * o.ingestFactor
		if r > share {
			r = share
		}
		for _, f := range o.flows {
			f.rate = r
			sumInflow += r
		}
	} else {
		rates := o.waterFillScratch(budget, o.ingestFactor)
		for i, f := range o.flows {
			f.rate = rates[i]
			sumInflow += rates[i]
		}
	}
	o.planInflow = sumInflow
	return sumInflow, ourDisk
}

// waterFillScratch distributes budget across the OST's flows subject to
// per-flow caps (scaled by capFactor), using iterative water-filling — capped
// flows release budget to others. Results land in the OST-owned scratch
// buffer, so replanning allocates nothing once the buffers have grown to the
// peak flow count.
//
//repro:hotpath
func (o *OST) waterFillScratch(budget float64, capFactor float64) []float64 {
	n := len(o.flows)
	if cap(o.rateScratch) < n {
		o.rateScratch = make([]float64, n)
		o.unsatScratch = make([]int, n)
	}
	rates := o.rateScratch[:n]
	unsat := o.unsatScratch[:0]
	waterFillInto(rates, unsat, o.flows, budget, capFactor)
	return rates
}

// waterFillInto is the water-filling loop shared by the OST fast path and
// the package tests. rates must have len(flows) entries; unsat must be an
// empty slice with capacity for len(flows) entries (or it will grow).
func waterFillInto(rates []float64, unsat []int, flows []*flow, budget float64, capFactor float64) {
	remainingBudget := budget
	for i := range flows {
		unsat = append(unsat, i)
	}
	for len(unsat) > 0 {
		share := remainingBudget / float64(len(unsat))
		progressed := false
		next := unsat[:0]
		for _, i := range unsat {
			if c := flows[i].cap * capFactor; c <= share {
				rates[i] = c
				remainingBudget -= c
				progressed = true
			} else {
				next = append(next, i)
			}
		}
		unsat = next
		if !progressed {
			share = remainingBudget / float64(len(unsat))
			for _, i := range unsat {
				rates[i] = share
			}
			break
		}
	}
}

// waterFillFactor distributes budget across flows subject to per-flow caps
// scaled by capFactor, allocating fresh result buffers (the OST hot path
// uses waterFillScratch instead).
func waterFillFactor(flows []*flow, budget float64, capFactor float64) []float64 {
	rates := make([]float64, len(flows))
	waterFillInto(rates, make([]int, 0, len(flows)), flows, budget, capFactor)
	return rates
}

// advance integrates the fluid state from lastUpdate to now at the rates
// currently in force, completing flows and waking flush waiters whose
// conditions are met.
//
//repro:hotpath
func (o *OST) advance() {
	now := o.k.Now()
	dt := (now - o.lastUpdate).Seconds()
	o.lastUpdate = now
	if dt < 0 {
		panic("pfs: time went backwards")
	}
	if dt == 0 {
		// Every advance ends with completions fired, and nothing changes
		// between events at one timestamp, so there is nothing to scan for.
		return
	}

	var inflow float64
	anyDone := false
	for _, f := range o.flows {
		adv := f.rate * dt
		if adv > f.remaining {
			adv = f.remaining
		}
		f.remaining -= adv
		inflow += adv
		if f.remaining <= completionEps {
			anyDone = true
		}
	}
	o.ingestedTotal += inflow

	// Drain applies to dirty bytes plus pass-through of fresh inflow.
	drainable := o.cacheLevel + inflow
	drained := o.drainRate * dt
	if drained > drainable {
		drained = drainable
	}
	o.drainedTotal += drained
	// Invariant: cacheLevel == ingestedTotal - drainedTotal, exactly. Never
	// clamp it independently — that would strand bytes and leave flush
	// watermarks unreachable. Event-time rounding can overshoot CacheBytes
	// by a sub-byte sliver, which plan() already treats as "full".
	o.cacheLevel = drainable - drained
	if o.cacheLevel < 0 {
		o.cacheLevel = 0
	}

	o.fireCompletions(anyDone)
}

// fireCompletions completes exhausted flows (only scanned when the caller's
// integration pass saw one hit zero) and satisfied flush waiters.
//
//repro:hotpath
func (o *OST) fireCompletions(anyDone bool) {
	if anyDone {
		keep := o.flows[:0]
		for _, f := range o.flows {
			if f.remaining <= completionEps {
				o.Stats.WritesFinished++
				done := f.done
				*f = flow{}
				o.freeFlows = append(o.freeFlows, f)
				if done != nil {
					done()
				}
			} else {
				keep = append(keep, f)
			}
		}
		if len(keep) != len(o.flows) {
			o.planValid = false
			// Zero out the tail so recycled flows are not doubly referenced.
			for i := len(keep); i < len(o.flows); i++ {
				o.flows[i] = nil
			}
			o.flows = keep
		}
	}

	for o.waiters.Len() > 0 && o.drainedTotal+completionEps >= o.waiters.At(0).watermark {
		o.waiters.Pop().wake()
	}
	o.Stats.BytesIngested = o.ingestedTotal
	o.Stats.BytesDrained = o.drainedTotal
}

// recompute re-plans rates and schedules the next boundary event. Must be
// called after advance whenever membership or load changed. When the plan
// signature is intact — no membership or knob change since the last plan and
// the cache-full regime unchanged — the planned rates are reused and only
// the next boundary is recomputed (flush-watermark boundaries and no-op
// wakeups hit this path).
//
//repro:hotpath
func (o *OST) recompute() {
	var sumInflow, drain float64
	if o.planValid && o.planCacheFull == (o.cacheLevel >= o.effCache-completionEps) {
		sumInflow, drain = o.planInflow, o.drainRate
	} else {
		sumInflow, drain = o.plan()
	}
	// Effective drain is limited by what is available (dirty + inflow).
	o.drainRate = drain

	next := math.Inf(1)

	// Flow completions.
	for _, f := range o.flows {
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < next {
				next = t
			}
		}
	}

	// Cache filling to the currently effective capacity (rate change
	// boundary; the capacity shrinks while external streams hold cache).
	fill := sumInflow - drain
	if o.cacheLevel > 0 || sumInflow > drain {
		if fill > 0 && o.cacheLevel < o.effCache {
			if t := (o.effCache - o.cacheLevel) / fill; t < next {
				next = t
			}
		}
	}

	// Flush waiters: time until the earliest watermark (the head's)
	// drains. The drain consumes dirty bytes first (FIFO), so progress
	// toward a watermark w is bounded by drainedTotal growth at rate
	// min(drain, available).
	if o.waiters.Len() > 0 && drain > 0 {
		needed := o.waiters.At(0).watermark - o.drainedTotal
		if needed <= completionEps {
			next = 0
		} else {
			// drainedTotal advances at rate min(drain, cacheLevel/dt+inflow)
			// ≈ drain while dirty bytes remain; the watermark is within the
			// dirty region by construction.
			if t := needed / drain; t < next {
				next = t
			}
		}
	}

	if math.IsInf(next, 1) {
		o.boundary.Cancel()
		o.boundary = simkernel.Timer{}
		return // quiescent
	}
	// Clamp to one virtual nanosecond: crossing times smaller than the
	// clock resolution would otherwise schedule zero-duration events and
	// spin at a single timestamp.
	if next < 1e-9 {
		next = 1e-9
	}
	// Flow-completion and watermark crossings are fixed absolute times:
	// while rates hold, successive recomputes re-derive the same deadline.
	// Keeping the pending timer then spares the queue a lazy-cancelled
	// corpse and a reinsertion per recompute — the dominant event churn.
	if at := o.k.Now() + simkernel.FromSeconds(next); !o.boundary.Active() || o.boundaryAt != at {
		o.boundary.Cancel()
		o.boundary = o.k.AfterSeconds(next, o.onBoundary)
		o.boundaryAt = at
	}
}

// String renders a compact diagnostic view.
func (o *OST) String() string {
	return fmt.Sprintf("OST%03d{flows=%d ext=%d slow=%.2f cache=%.0fMB}",
		o.ID, len(o.flows), o.extStreams, o.slowFactor, o.cacheLevel/MB)
}

// DebugState dumps internal fluid state for diagnostics.
func (o *OST) DebugState() string {
	return fmt.Sprintf("flows=%d waiters=%d cache=%.6f ingested=%.6f drained=%.6f drainRate=%.3f boundaryActive=%v",
		len(o.flows), o.waiters.Len(), o.cacheLevel, o.ingestedTotal, o.drainedTotal, o.drainRate, o.boundary.Active())
}
