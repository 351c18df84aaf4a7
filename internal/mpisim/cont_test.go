package mpisim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/simkernel"
)

// The engine-equivalence pin at the mpisim level: the same two-phase ring
// workload, once on goroutine ranks (World.Launch, the public sequential
// API, with blocking Recv) and once on continuation ranks (LaunchCont with
// RecvCont), must produce an identical execution log. Phase 1 exercises the inline receive
// (message already queued when the receive begins); phase 2 the blocking
// receive (token ring, every rank waits on its predecessor).

func runRingGoroutine(n int) []string {
	k := simkernel.New()
	w := NewWorld(k, n, Options{})
	var log []string
	add := func(rank int, what string) {
		log = append(log, fmt.Sprintf("%v r%d %s", k.Now(), rank, what))
	}
	wg := w.Launch("ring", func(r *Rank) {
		i := r.Rank()
		next, prev := (i+1)%n, (i+n-1)%n
		r.Send(next, 7, i)
		r.Proc().Sleep(time.Millisecond) // let the phase-1 message land
		m := r.Recv(prev, 7)             // inline: already queued
		add(i, fmt.Sprintf("phase1 %v", m.Data))
		if i == 0 {
			r.Send(next, 9, 0)
		}
		m = r.Recv(prev, 9) // blocking: token ring
		add(i, fmt.Sprintf("phase2 %v", m.Data))
		if i != 0 {
			r.Send(next, 9, m.Data.(int)+1)
		}
	})
	k.Spawn("join", func(p *simkernel.Proc) { wg.Wait(p) })
	k.Run()
	k.Shutdown()
	return log
}

type ringCont struct {
	pc         int
	next, prev int
	op         RecvOp
	add        func(rank int, what string)
}

func (m *ringCont) StepRank(r *Rank, c *simkernel.ContProc) bool {
	i := r.Rank()
	for {
		switch m.pc {
		case 0:
			r.Send(m.next, 7, i)
			m.pc = 1
			c.Sleep(time.Millisecond)
			return false
		case 1:
			m.pc = 2
			if !r.RecvCont(&m.op, c, m.prev, 7) {
				return false
			}
		case 2:
			m.add(i, fmt.Sprintf("phase1 %v", m.op.Msg().Data))
			if i == 0 {
				r.Send(m.next, 9, 0)
			}
			m.pc = 3
			if !r.RecvCont(&m.op, c, m.prev, 9) {
				return false
			}
		case 3:
			msg := m.op.Msg()
			m.add(i, fmt.Sprintf("phase2 %v", msg.Data))
			if i != 0 {
				r.Send(m.next, 9, msg.Data.(int)+1)
			}
			return true
		}
	}
}

func runRingCont(n int) []string {
	k := simkernel.New()
	w := NewWorld(k, n, Options{})
	var log []string
	add := func(rank int, what string) {
		log = append(log, fmt.Sprintf("%v r%d %s", k.Now(), rank, what))
	}
	wg := w.LaunchCont("ring", func(i int) RankCont {
		return &ringCont{next: (i + 1) % n, prev: (i + n - 1) % n, add: add}
	})
	k.Spawn("join", func(p *simkernel.Proc) { wg.Wait(p) })
	k.Run()
	k.Shutdown()
	return log
}

func TestLaunchContMatchesLaunch(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		g := runRingGoroutine(n)
		c := runRingCont(n)
		if strings.Join(g, "\n") != strings.Join(c, "\n") {
			t.Fatalf("n=%d: engines diverge\n--- goroutine ---\n%s\n--- continuation ---\n%s",
				n, strings.Join(g, "\n"), strings.Join(c, "\n"))
		}
	}
}
