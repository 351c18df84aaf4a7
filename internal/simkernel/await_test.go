package simkernel

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestAwaitRunsOpToCompletion drives a two-sleep op through Await and
// checks the goroutine parks at each yield and resumes at the op's wakeup
// times.
func TestAwaitRunsOpToCompletion(t *testing.T) {
	k := New()
	defer k.Shutdown()
	var woke []Time
	pc := 0
	step := func(c *ContProc) bool {
		if pc > 0 {
			woke = append(woke, c.Now())
		}
		if pc == 2 {
			return true
		}
		pc++
		c.Sleep(time.Duration(pc) * time.Second)
		return false
	}
	var done Time
	k.Spawn("awaiter", func(p *Proc) {
		p.Await(step)
		done = p.Now()
	})
	k.Run()
	want := []Time{Time(time.Second), Time(3 * time.Second)}
	if fmt.Sprint(woke) != fmt.Sprint(want) || done != want[1] {
		t.Fatalf("op woke at %v and Await returned at %v; want %v and %v", woke, done, want, want[1])
	}
}

// TestAwaitProtocolViolationPanics pins Await's leak guard: an op that
// returns false without parking would leave the goroutine parked with no
// wakeup, so Await panics instead, as resumeCont does for a continuation.
func TestAwaitProtocolViolationPanics(t *testing.T) {
	k := New()
	defer k.Shutdown()
	var got any
	k.Spawn("leaky", func(p *Proc) {
		defer func() { got = recover() }()
		p.Await(func(c *ContProc) bool { return false })
	})
	k.Run()
	if got == nil || !strings.Contains(fmt.Sprint(got), "without yielding") {
		t.Fatalf("Await protocol violation panic missing, got %v", got)
	}
}

// TestResetUnwindsAwait checks that Kernel.Reset unwinds a goroutine parked
// inside Await like any other parked body: its deferred cleanup runs, the
// op is not resumed, and the goroutine's shell is recycled for the next
// spawn.
func TestResetUnwindsAwait(t *testing.T) {
	k := New()
	defer k.Shutdown()
	cleaned, resumed := false, false
	stuck := k.Spawn("stuck", func(p *Proc) {
		defer func() { cleaned = true }()
		parked := false
		p.Await(func(c *ContProc) bool {
			if parked {
				resumed = true
				return true
			}
			parked = true
			c.Pause() // no wakeup ever arrives
			return false
		})
	})
	k.Run()
	k.Reset()
	if !cleaned || resumed {
		t.Fatalf("after Reset: cleanup ran = %v, op resumed = %v; want true, false", cleaned, resumed)
	}
	if len(k.idle) != 1 || k.idle[0] != stuck {
		t.Fatalf("idle list = %v after Reset; want the unwound process's shell", k.idle)
	}
	reran := false
	if p := k.Spawn("again", func(p *Proc) { reran = true }); p != stuck {
		t.Fatal("spawn after Reset did not recycle the unwound shell")
	}
	k.Run()
	if !reran {
		t.Fatal("recycled goroutine did not run its new body")
	}
}
