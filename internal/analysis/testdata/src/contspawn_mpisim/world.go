// Package mpisim mirrors the one sanctioned goroutine spawner: World.Launch,
// the rank launcher behind the public sequential API.
package mpisim

import "repro/internal/simkernel"

type World struct{ k *simkernel.Kernel }

// Launch starts goroutine rank bodies: exempt.
func (w *World) Launch(name string, fn func(p *simkernel.Proc)) {
	w.k.SpawnJob(name, 1, fn)
}

// relaunch is any other mpisim code: reported.
func (w *World) relaunch(fn func(p *simkernel.Proc)) {
	w.k.Spawn("again", fn) // want `Kernel\.Spawn starts a goroutine process`
}
