package interference

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/simkernel"
)

// FailureEpisode scripts one storage target's crash lifecycle: the target
// dies at At, serves nothing for DeadFor seconds (in-flight operations
// stall, new ones time out with pfs.ErrTargetDown), then — if RebuildFor is
// positive — spends RebuildFor seconds Rebuilding with RebuildTax of its
// disk bandwidth consumed by reconstruction traffic before returning to
// Healthy. RebuildFor zero revives the target straight to Healthy.
type FailureEpisode struct {
	// OST is the target index the episode strikes.
	OST int
	// At is the crash time in virtual seconds.
	At float64
	// DeadFor is how long the target stays Dead, in seconds (must be
	// positive: a target that never revives deadlocks clients whose
	// in-flight operations stall awaiting it).
	DeadFor float64
	// RebuildFor is the post-revival rebuild duration in seconds (zero
	// skips the Rebuilding state).
	RebuildFor float64
	// RebuildTax is the fraction of disk bandwidth the rebuild consumes
	// while Rebuilding, in [0, 1).
	RebuildTax float64
}

// FailureConfig is a deterministic failure script for one replica: a set of
// scheduled OST crash episodes plus an optional metadata-server stall
// window. Unlike NoiseConfig it draws nothing at random — the same script
// produces the same transitions at the same virtual times on every run,
// because the injector is pure kernel events (no processes).
type FailureConfig struct {
	// Enabled turns the injector on.
	Enabled bool
	// Episodes are the scripted OST crashes.
	Episodes []FailureEpisode
	// MDSStallAt / MDSStallFor script a metadata-server stall window
	// starting at MDSStallAt seconds and lasting MDSStallFor seconds
	// (MDSStallFor zero disables it).
	MDSStallAt  float64
	MDSStallFor float64
	// DeadTimeout overrides the file system's client abandon timeout in
	// seconds (zero keeps the pfs.Config default). The cluster layer
	// consumes this when building the file system; the injector itself
	// does not read it.
	DeadTimeout float64
}

// Validate checks the script against a target count.
func (cfg FailureConfig) Validate(numOSTs int) error {
	if !cfg.Enabled {
		return nil
	}
	for i, ep := range cfg.Episodes {
		if ep.OST < 0 || ep.OST >= numOSTs {
			return fmt.Errorf("interference: failure episode %d: OST %d out of range (machine has %d)", i, ep.OST, numOSTs)
		}
		if ep.At < 0 {
			return fmt.Errorf("interference: failure episode %d: negative crash time %v", i, ep.At)
		}
		if ep.DeadFor <= 0 {
			return fmt.Errorf("interference: failure episode %d: DeadFor must be positive (a target that never revives deadlocks stalled clients)", i)
		}
		if ep.RebuildFor < 0 {
			return fmt.Errorf("interference: failure episode %d: negative rebuild duration %v", i, ep.RebuildFor)
		}
		if ep.RebuildTax < 0 || ep.RebuildTax >= 1 {
			return fmt.Errorf("interference: failure episode %d: RebuildTax %v outside [0, 1)", i, ep.RebuildTax)
		}
	}
	if cfg.MDSStallFor < 0 || cfg.MDSStallAt < 0 {
		return fmt.Errorf("interference: negative MDS stall window (%v, %v)", cfg.MDSStallAt, cfg.MDSStallFor)
	}
	if cfg.DeadTimeout < 0 {
		return fmt.Errorf("interference: negative dead timeout %v", cfg.DeadTimeout)
	}
	return nil
}

// Failures is a running failure injector. Like Noise, a Failures built by
// StartFailures can be re-armed for a later replica with Reset after the
// owning kernel and file system have been Reset, reusing its cached event
// closures instead of rebuilding them.
type Failures struct {
	fs      *pfs.FileSystem //repro:reset-skip identity, fixed at construction
	cfg     FailureConfig
	stopped bool

	// Cached per-episode event closures, built once by StartFailures and
	// rescheduled by every arm; they read n.cfg.Episodes through their
	// captured index so Reset can retune the script without reallocating.
	crashEv   []func() //repro:reset-skip cached event closures, built once by build
	rebuildEv []func() //repro:reset-skip cached event closures, built once by build
	healEv    []func() //repro:reset-skip cached event closures, built once by build
	mdsEv     func()   //repro:reset-skip cached event closure, built once by build
}

// StartFailures arms the failure script on the file system's kernel. With
// Enabled false it returns an inert Failures. The script must Validate
// against the file system's target count.
func StartFailures(fs *pfs.FileSystem, cfg FailureConfig) (*Failures, error) {
	if err := cfg.Validate(len(fs.OSTs)); err != nil {
		return nil, err
	}
	f := &Failures{fs: fs, cfg: cfg}
	if !cfg.Enabled {
		return f, nil
	}
	f.build()
	f.arm()
	return f, nil
}

// build constructs the cached event closures, one triple per episode slot.
// Each closure indexes the current cfg.Episodes, so Reset retunes the
// script (times, durations, taxes, targets) without rebuilding anything.
func (f *Failures) build() {
	n := len(f.cfg.Episodes)
	f.crashEv = make([]func(), n)
	f.rebuildEv = make([]func(), n)
	f.healEv = make([]func(), n)
	for i := 0; i < n; i++ {
		i := i
		f.crashEv[i] = func() {
			if f.stopped {
				return
			}
			f.fs.OST(f.cfg.Episodes[i].OST).SetHealth(pfs.Dead, 1)
		}
		f.rebuildEv[i] = func() {
			if f.stopped {
				return
			}
			ep := &f.cfg.Episodes[i]
			if ep.RebuildFor > 0 {
				f.fs.OST(ep.OST).SetHealth(pfs.Rebuilding, 1-ep.RebuildTax)
			} else {
				f.fs.OST(ep.OST).SetHealth(pfs.Healthy, 1)
			}
		}
		f.healEv[i] = func() {
			if f.stopped {
				return
			}
			f.fs.OST(f.cfg.Episodes[i].OST).SetHealth(pfs.Healthy, 1)
		}
	}
	f.mdsEv = func() {
		if f.stopped {
			return
		}
		f.fs.MDS.Stall(simkernel.FromSeconds(f.cfg.MDSStallAt + f.cfg.MDSStallFor))
	}
}

// arm schedules the script's transitions on the kernel. Scheduling order is
// fixed (episodes in declaration order, crash → revive → heal, MDS stall
// last) so same-timestamp events fire identically on every replica.
func (f *Failures) arm() {
	k := f.fs.K
	for i := range f.cfg.Episodes {
		ep := &f.cfg.Episodes[i]
		k.At(simkernel.FromSeconds(ep.At), f.crashEv[i])
		k.At(simkernel.FromSeconds(ep.At+ep.DeadFor), f.rebuildEv[i])
		if ep.RebuildFor > 0 {
			k.At(simkernel.FromSeconds(ep.At+ep.DeadFor+ep.RebuildFor), f.healEv[i])
		}
	}
	if f.cfg.MDSStallFor > 0 {
		k.At(simkernel.FromSeconds(f.cfg.MDSStallAt), f.mdsEv)
	}
}

// CanReset reports whether Reset(cfg) can re-arm this injector in place: the
// episode count must match the built closure set (every other parameter is
// free to change, including which targets the episodes strike).
func (f *Failures) CanReset(cfg FailureConfig) bool {
	return f.cfg.Enabled == cfg.Enabled && len(cfg.Episodes) == len(f.crashEv)
}

// Reset re-arms the script for a new replica (the owning kernel must
// already have been Reset, which discarded the previous replica's scheduled
// events). CanReset(cfg) must hold; the new script must Validate.
func (f *Failures) Reset(cfg FailureConfig) error {
	if !f.CanReset(cfg) {
		panic("interference: failure Reset with structurally different config (check CanReset)")
	}
	if err := cfg.Validate(len(f.fs.OSTs)); err != nil {
		return err
	}
	f.cfg = cfg
	f.stopped = false
	if !cfg.Enabled {
		return nil
	}
	f.arm()
	return nil
}

// Stop cancels the script's remaining transitions and restores every struck
// component to clean state.
func (f *Failures) Stop() {
	f.stopped = true
	for i := range f.cfg.Episodes {
		f.fs.OST(f.cfg.Episodes[i].OST).SetHealth(pfs.Healthy, 1)
	}
	f.fs.MDS.Stall(0)
}
