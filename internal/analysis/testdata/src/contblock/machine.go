package simkernel

import (
	"sync"
	"time"
)

// pumpMachine has a *ContProc method, so it is a continuation machine and
// every method below is in contblock's audit scope.
type pumpMachine struct {
	mb  *Mailbox
	res *Resource
	k   *Kernel
	ch  chan int
	mu  sync.Mutex
	op  RecvOp
	w   WriteOp
}

// Step is the continuation body: every goroutine-blocking primitive in it
// must be flagged, every cont variant must stay silent.
func (m *pumpMachine) Step(c *ContProc) {
	p := c.Proc()
	m.mb.Recv(p)         // want `Mailbox\.Recv suspends the calling goroutine.*use RecvCont`
	m.res.Acquire(p)     // want `Resource\.Acquire suspends the calling goroutine.*use AcquireCont`
	p.Sleep(time.Second) // want `Proc\.Sleep suspends the calling goroutine.*use ContProc\.Sleep`
	m.k.Run()            // want `Kernel\.Run suspends the calling goroutine`
	p.Await(m.w.Step)    // want `Proc\.Await suspends the calling goroutine.*use the op's Step directly`

	c.Sleep(time.Second)    // cont variant: legal
	c.SleepUntil(5)         // cont variant: legal
	m.mb.RecvCont(&m.op, c) // cont variant: legal
	m.res.AcquireCont(c)    // cont variant: legal
	if v, ok := m.mb.TryRecv(); ok {
		_ = v // non-blocking poll: legal
	}
}

// helper has no *ContProc parameter but is a method of the machine: the
// receiver propagation keeps it in scope.
func (m *pumpMachine) helper() {
	time.Sleep(time.Millisecond) // want `time\.Sleep blocks the event-loop goroutine`
	m.mu.Lock()                  // want `sync\.Mutex\.Lock in a continuation body`
	m.ch <- 1                    // want `channel send in a continuation body`
	<-m.ch                       // want `channel receive in a continuation body`
	go m.helper()                // want `go statement in a continuation body`
	select {}                    // want `select in a continuation body`
}

func (m *pumpMachine) drain() {
	for v := range m.ch { // want `range over a channel in a continuation body`
		_ = v
	}
}

// RecvBoth serves the goroutine engine too: the *Proc parameter marks it as
// a goroutine body, where blocking is the contract.
func (m *pumpMachine) RecvBoth(p *Proc) any {
	return m.mb.Recv(p)
}

// spawnHelper hands the goroutine engine a literal; the literal's *Proc
// parameter exempts its body.
func (m *pumpMachine) spawnHelper() {
	m.k.Spawn("writer", func(p *Proc) {
		m.mb.Recv(p)
		p.Suspend()
	})
}

// boundary is the sanctioned SC/C pump crossing: waived with a reason.
func (m *pumpMachine) boundary(p *Proc2) any {
	return m.mb.Recv(nil) //repro:allow contblock the SC/C pump boundary runs on the goroutine engine
}

// Proc2 keeps boundary from matching the *Proc signature exemption, so the
// waiver (not the exemption) is what the fixture exercises.
type Proc2 struct{}
