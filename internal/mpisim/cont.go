package mpisim

// Continuation-engine entry points. A rank body that is straight-line —
// the transports' collective steps, the workload generators — can run as a
// simkernel continuation instead of a goroutine: the kernel resumes its
// Step inline on every wakeup, with no channel handoff. The
// message-passing state (per-rank queues, waiter lists, delivery events)
// is shared between both engines, so a world may mix LaunchCont ranks with
// goroutine ranks, and a goroutine rank may Await a continuation op that
// receives through RecvCont. The adaptive method's sub-coordinator and
// coordinator pumps are continuation machines (core's pump.go), spawned
// directly via Kernel.SpawnCont alongside whichever engine carries the
// rank bodies.

import (
	"repro/internal/simkernel"
)

// RankCont is a run-to-completion rank body: the continuation counterpart
// of Launch's fn. StepRank is resumed by the kernel on every wakeup and
// follows the simkernel.Cont protocol — return true when the rank's work
// is complete, or arrange a wakeup, mark the process parked, and return
// false to yield.
type RankCont interface {
	StepRank(r *Rank, c *simkernel.ContProc) bool
}

// rankShell adapts a RankCont to simkernel.Cont: it wires the rank to its
// backing process and signals the launch wait group when the body
// completes — the exact counterpart of Launch's `defer wg.Done()`.
type rankShell struct {
	r    *Rank
	body RankCont
	wg   *simkernel.WaitGroup
}

//repro:hotpath
func (s *rankShell) Step(c *simkernel.ContProc) bool {
	s.r.p = c.Proc()
	if !s.body.StepRank(s.r, c) {
		return false
	}
	s.wg.Done()
	return true
}

// LaunchCont spawns one continuation process per rank running mk(i). It is
// the run-to-completion counterpart of Launch: same process names, same
// spawn order, same completion wait group — so a workload launched either
// way schedules the same events in the same order.
//
// The rank shells persist on the world and are rebound to the new bodies on
// every call, so a recycled world (World.Reset) launches its next replica
// without reallocating them. At most one LaunchCont batch may be in flight
// per world at a time.
func (w *World) LaunchCont(name string, mk func(i int) RankCont) *simkernel.WaitGroup {
	wg := simkernel.NewWaitGroup(w.k)
	wg.Add(w.size)
	if w.shells == nil {
		w.shells = make([]rankShell, w.size)
	}
	names := w.names(name)
	for i := 0; i < w.size; i++ {
		w.shells[i] = rankShell{r: w.ranks[i], body: mk(i), wg: wg}
		w.k.SpawnContJob(names[i], w.job, &w.shells[i])
	}
	return wg
}

// RecvOp is a continuation-side receive in flight. The zero value is
// ready; one RecvOp may be reused across sequential receives. Protocol
// (advance style):
//
//	if !r.RecvCont(&op, c, from, tag) {
//	        m.pc = next    // advance PAST the receive before yielding
//	        return false
//	}
//	msg := op.Msg()
//
// and at the top of state `next`, read op.Msg(). A matching queued message
// completes the receive inline (true) with no event scheduled — the same
// no-block fast path as the goroutine engine's Recv.
type RecvOp struct {
	w      recvWaiter
	msg    Message
	inline bool
}

// RecvCont begins a receive for a continuation body. It reports whether a
// matching message was already queued (completed inline); otherwise c is
// registered as a waiter and marked parked — the body must yield with its
// program counter advanced past the receive, because delivery fills the op
// and wakes the process directly.
//
//repro:hotpath
func (r *Rank) RecvCont(o *RecvOp, c *simkernel.ContProc, from, tag int) bool {
	if m, ok := r.TryRecv(from, tag); ok {
		o.msg = m
		o.inline = true
		return true
	}
	o.inline = false
	o.w = recvWaiter{from: from, tag: tag, proc: c.Proc(), wake: c.Waker()}
	r.waiters.Push(&o.w)
	c.Pause()
	return false
}

// Msg returns the received message. Valid after RecvCont returned true, or
// after the wakeup that follows a false return.
func (o *RecvOp) Msg() Message {
	if o.inline {
		return o.msg
	}
	if !o.w.has {
		panic("mpisim: Recv woke without a message")
	}
	return o.w.msg
}
