package iomethod

import (
	"repro/internal/mpisim"
	"repro/internal/simkernel"
)

// StepCont is one rank's collective output step in flight on the
// continuation engine: the run-to-completion counterpart of a WriteStep
// call. Step follows the simkernel.Cont protocol — it returns true when
// this rank's participation (including any coordination roles the rank
// carries) has finished, or arranges a wakeup, marks the process parked,
// and returns false. Wakeups re-enter Step to continue the same operation
// (advance style), so the driving machine must move its own program counter
// past the step before yielding.
type StepCont interface {
	// Step drives the rank's participation; see simkernel.Cont.
	Step(c *simkernel.ContProc) bool

	// Result returns what the equivalent WriteStep call would have
	// returned; valid once Step has returned true.
	Result() (*StepResult, error)
}

// ContMethod is implemented by transports whose WriteStep can run as a
// continuation; their WriteStep awaits the same machine on the rank's
// goroutine. BeginStepCont arms and returns the rank's step machine; it
// performs no simulation work itself (no events, no random draws), so a
// body may call it at any point before first driving the machine.
type ContMethod interface {
	Method

	// BeginStepCont begins the continuation form of
	// WriteStep(r, stepName, data).
	BeginStepCont(r *mpisim.Rank, stepName string, data RankData) StepCont
}
