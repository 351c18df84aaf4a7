package simkernel

import "time"

// The continuation engine: run-to-completion processes.
//
// A goroutine process costs a channel round-trip per handoff (~500 ns —
// BenchmarkProcessHandoff) because park/unpark crosses the scheduler twice.
// A continuation process eliminates the goroutine entirely: its body is an
// explicit state machine (Cont) that the kernel loop steps inline. "Yield"
// means the body arranged its own wakeup — a scheduled sleep event, or
// registration on a waiter list some other component will wake — marked the
// process parked, and returned from Step. The next wakeup event re-enters
// Step, which dispatches on its own program counter. "Completion" means Step
// returned true.
//
// A continuation process is an ordinary *Proc registered in the same
// tables, woken through the same scheduleProc events and waiter lists,
// tagged with the same job ids, and ordered by the same (time, seq) keys.
// Operations above the kernel (pfs client calls, transport steps) are
// written once, as continuation ops; a goroutine process runs the same op
// through Proc.Await, which parks the goroutine wherever the op yields. The
// blocking form of such an operation is therefore a few-line adaptor, and
// both engines schedule identical events by construction.
//
// Discipline for Step bodies: they run on the kernel thread, so they must
// not block (calling a goroutine-path method like Proc.Sleep panics), must
// yield only as the last action before returning false, and hold no state on
// the stack across yields — everything lives in the Cont value. Bodies run
// no deferred cleanup: Kernel.Reset drops in-flight continuations outright,
// so any end-of-body signalling (WaitGroup.Done) belongs in the machine's
// final state. reprolint's hotpath analyzer audits every function taking a
// *ContProc parameter as a hot path automatically.

// Cont is a continuation body: a resumable state machine. Step runs the
// machine until it either completes (returns true) or yields (arranges a
// wakeup via c, marks the process parked, and returns false).
type Cont interface {
	Step(c *ContProc) bool
}

// ContProc is the continuation-side view of a process. It is the same
// underlying Proc (conversion is free) but exposes only non-blocking
// methods: sleeps arrange a wakeup and return immediately, and the body is
// expected to yield right after.
type ContProc Proc

// SpawnCont creates a continuation process that begins stepping body at the
// current virtual time (as a scheduled event, so the caller continues
// first). Dead continuation shells are recycled from a freelist, so
// steady-state spawning allocates nothing.
func (k *Kernel) SpawnCont(name string, body Cont) *Proc {
	p := k.newContProc(name, body)
	k.scheduleProc(k.now, p)
	return p
}

// SpawnContAt is SpawnCont with the first step delayed until absolute
// virtual time at.
func (k *Kernel) SpawnContAt(at Time, name string, body Cont) *Proc {
	if at < k.now {
		at = k.now
	}
	p := k.newContProc(name, body)
	k.scheduleProc(at, p)
	return p
}

// SpawnContJob is SpawnCont with a job attribution tag (see SpawnJob).
func (k *Kernel) SpawnContJob(name string, job int, body Cont) *Proc {
	p := k.newContProc(name, body)
	p.job = job
	k.scheduleProc(k.now, p)
	return p
}

// SpawnJoin creates a continuation process that waits until wg's counter
// is zero and then calls fn in kernel context (Kernel.Now is the join
// time). It is the one joiner shape: stop the kernel once a workload has
// finished, release a barrier, or record a job's completion.
func (k *Kernel) SpawnJoin(name string, wg *WaitGroup, fn func()) *Proc {
	return k.SpawnCont(name, &joinCont{wg: wg, fn: fn})
}

// joinCont is SpawnJoin's body.
type joinCont struct {
	wg *WaitGroup
	fn func()
}

//repro:hotpath
func (j *joinCont) Step(c *ContProc) bool {
	if !j.wg.WaitCont(c) {
		return false
	}
	j.fn()
	return true
}

// newContProc registers a continuation process, recycling a dead shell from
// the freelist when one is available.
func (k *Kernel) newContProc(name string, body Cont) *Proc {
	k.nextProcID++
	if n := len(k.idleCont); n > 0 {
		p := k.idleCont[n-1]
		k.idleCont[n-1] = nil
		k.idleCont = k.idleCont[:n-1]
		p.id = k.nextProcID
		p.name = name
		p.job = 0
		p.cont = body
		p.state = procReady
		k.procs = append(k.procs, p)
		return p
	}
	p := &Proc{
		k:      k,
		id:     k.nextProcID,
		name:   name,
		state:  procReady,
		isCont: true,
		cont:   body,
	}
	k.procs = append(k.procs, p)
	return p
}

// resumeCont steps a continuation process inline. Completion is Step
// returning true; otherwise the body must have parked itself (via a yield
// method on ContProc), which is enforced because a body that neither
// completes nor yields would silently leak.
//
//repro:hotpath
func (p *Proc) resumeCont(kind wakeKind) {
	if kind != wakeRun {
		// Halt/shutdown: continuation bodies have no stack to unwind and
		// no deferred cleanup; dropping the machine is the whole unwind.
		p.state = procDone
		p.cont = nil
		return
	}
	p.state = procRunning
	if p.cont.Step((*ContProc)(p)) {
		if p.state == procParked {
			panic("simkernel: continuation " + p.name + " yielded and then reported completion")
		}
		p.state = procDone
		p.cont = nil
		return
	}
	if p.state != procParked {
		panic("simkernel: continuation " + p.name + " returned without yielding or completing")
	}
}

// Await runs a continuation op to completion on a goroutine process: it
// calls step with the process's continuation view and parks the goroutine
// each time the op yields, until step reports completion. Every blocking
// operation with a continuation form is this adaptor over it, so the op's
// body is the only one. As in resumeCont, a step that returns false
// without parking panics. Ops whose wakeups resume the continuation inline
// rather than through a scheduled event (Mailbox.RecvCont's direct
// delivery) cannot be awaited.
//
//repro:hotpath
func (p *Proc) Await(step func(*ContProc) bool) {
	for !step((*ContProc)(p)) {
		if p.state != procParked {
			panic("simkernel: awaited op on " + p.name + " returned without yielding or completing")
		}
		p.park()
	}
}

// Proc returns the underlying process, for identity and wiring only —
// registering on waiter lists, job inspection. Calling any blocking method
// on it (Sleep, Suspend, a primitive's blocking wait) panics: a continuation
// has no goroutine to park.
func (c *ContProc) Proc() *Proc { return (*Proc)(c) }

// Kernel returns the kernel this process belongs to.
func (c *ContProc) Kernel() *Kernel { return c.k }

// Now returns the current virtual time.
//
//repro:hotpath
func (c *ContProc) Now() Time { return c.k.now }

// Name returns the process's diagnostic name.
func (c *ContProc) Name() string { return c.name }

// ID returns the process's unique id within its kernel.
func (c *ContProc) ID() int { return c.id }

// Job returns the process's job attribution tag (0 = unattributed).
//
//repro:hotpath
func (c *ContProc) Job() int { return c.job }

// Pause marks the process parked without scheduling a wakeup: the caller
// has already arranged one (waiter-list registration whose owner will call
// Waker, a pending StartWrite completion, ...). The body must return false
// from Step immediately after. Equivalent to Proc.Suspend.
//
//repro:hotpath
func (c *ContProc) Pause() { c.state = procParked }

// Sleep arranges a wakeup after virtual duration d and marks the process
// parked; the body must yield. Equivalent in event behaviour to Proc.Sleep
// (always schedules, even for d <= 0).
//
//repro:hotpath
func (c *ContProc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.k.scheduleProc(c.k.now+Time(d), (*Proc)(c))
	c.state = procParked
}

// SleepSeconds is Sleep for a floating-point number of virtual seconds.
//
//repro:hotpath
func (c *ContProc) SleepSeconds(s float64) {
	c.k.scheduleProc(c.k.now+FromSeconds(s), (*Proc)(c))
	c.state = procParked
}

// SleepUntil arranges a wakeup at absolute virtual time at and marks the
// process parked, reporting true (the body must yield). Like Proc.SleepUntil
// it is a no-op when at is not in the future: it returns false and the body
// continues inline, scheduling no event.
//
//repro:hotpath
func (c *ContProc) SleepUntil(at Time) bool {
	if at <= c.k.now {
		return false
	}
	c.k.scheduleProc(at, (*Proc)(c))
	c.state = procParked
	return true
}

// Waker returns the process's cached wake closure (see Proc.Waker): calling
// it schedules a resume at the virtual time of the call.
//
//repro:hotpath
func (c *ContProc) Waker() func() { return (*Proc)(c).Waker() }
