package adios

import (
	"fmt"

	"repro/internal/iomethod"
	"repro/internal/simkernel"
)

// Continuation-engine support. A rank body running as a run-to-completion
// state machine (cluster.World.LaunchCont) closes its output step through
// CloseCont instead of the blocking Close. Every transport's step is a
// continuation machine, and the blocking Close awaits the same machine on
// the rank's goroutine, so results are identical either way.

// ContCapable reports true: every transport runs its step on the
// continuation engine.
//
// Deprecated: there is no goroutine-only transport left to fall back for.
func (io *IO) ContCapable() bool { return true }

// CloseCont is a collective close in flight: the continuation counterpart
// of File.Close. The zero value is ready; one CloseCont may be reused
// across sequential steps. Arm it with File.BeginCloseCont, drive it with
// Step (advance style — move the machine's program counter past the close
// before yielding), then read Result.
type CloseCont struct {
	sc  iomethod.StepCont
	res StepResult
	err error
}

// BeginCloseCont arms cc to perform this file's collective output. Like
// Close, the file is consumed (a second close of the same handle fails).
func (f *File) BeginCloseCont(cc *CloseCont) {
	if f.done {
		panic(fmt.Sprintf("adios: double Close on step %q", f.name))
	}
	f.done = true
	*cc = CloseCont{sc: f.io.method.BeginStepCont(f.rank, f.name, f.data)}
}

// Step drives the collective close; see simkernel.Cont. When the step
// finishes it captures the result: the transport may recycle its step
// machine for a later step once every rank has returned, so the result is
// read here, not from the machine when Result is called.
//
//repro:hotpath
func (cc *CloseCont) Step(c *simkernel.ContProc) bool {
	if !cc.sc.Step(c) {
		return false
	}
	res, err := cc.sc.Result()
	cc.sc = nil
	cc.res = StepResult{StepResult: res}
	cc.err = err
	return true
}

// Result returns what the equivalent Close call would have returned; valid
// once Step has returned true, and until the next BeginCloseCont re-arms
// cc, however many steps run on the world in between. The returned
// pointer aliases the CloseCont (no per-rank allocation), so a caller
// keeping a result across a re-arm copies the StepResult value.
func (cc *CloseCont) Result() (*StepResult, error) {
	if cc.err != nil {
		return nil, cc.err
	}
	return &cc.res, nil
}
