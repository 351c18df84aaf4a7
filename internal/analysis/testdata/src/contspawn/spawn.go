// Package fixture is library code (it loads under an internal/ path)
// starting simulation processes: goroutine spawns are reported, the
// continuation spawns are the sanctioned form.
package fixture

import "repro/internal/simkernel"

type joiner struct{ done bool }

func (j *joiner) Step(c *simkernel.ContProc) bool {
	j.done = true
	return true
}

func start(k *simkernel.Kernel, wg *simkernel.WaitGroup) {
	k.Spawn("watch", func(p *simkernel.Proc) {})      // want `Kernel\.Spawn starts a goroutine process in library code`
	k.SpawnAt(5, "later", func(p *simkernel.Proc) {}) // want `Kernel\.SpawnAt starts a goroutine process`
	k.SpawnJob("rank", 1, func(p *simkernel.Proc) {}) // want `Kernel\.SpawnJob starts a goroutine process`

	k.SpawnCont("joiner", &joiner{})   // continuation: legal
	k.SpawnJoin("stop", wg, func() {}) // continuation joiner: legal

	//repro:allow contblock a deliberate goroutine probe, waived
	k.Spawn("probe", func(p *simkernel.Proc) {})
}

// Package-level initializers are library code too.
var relaunch = func(k *simkernel.Kernel) {
	k.Spawn("again", nil) // want `Kernel\.Spawn starts a goroutine process`
}
