// Package ior reimplements the IOR synthetic benchmark as used in Section II
// of the paper: N writers using POSIX-IO, one file per writer, each file
// pinned to a fixed storage target with writers split evenly across targets,
// weak scaling in per-writer data size.
//
// As in the paper, reported times "specifically omit file open and close
// times": files are created before the timed region and the measured span
// covers only the write phase (optionally including an explicit flush, which
// the Section IV methodology adds).
package ior

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/simkernel"
	"repro/internal/stats"
)

// Mode selects the file organisation.
type Mode int

const (
	// FilePerProcess is the paper's configuration: each writer owns a file
	// pinned to one storage target (stripe count 1).
	FilePerProcess Mode = iota
	// SharedFile puts all writers into one file striped across the target
	// set (an MPI-IO-style organisation, provided for comparison).
	SharedFile
)

// Config describes one IOR run.
type Config struct {
	// Writers is the number of writer processes.
	Writers int
	// OSTs is the set of storage targets to spread writers across; nil
	// means targets 0..NumOSTs-1 capped at the file-system size.
	OSTs []int
	// BytesPerWriter is the per-process data size (weak scaling).
	BytesPerWriter float64
	// Mode selects file-per-process (default) or shared-file.
	Mode Mode
	// Flush, when true, includes an explicit flush in the timed region
	// (the paper's Section IV methodology; Section II omits it so that
	// cache-absorbed small writes show their cache benefit).
	Flush bool
	// Tag distinguishes files of concurrent IOR instances sharing one
	// file system (the "XTP with interference" experiment runs two).
	Tag string
}

// Result reports one run's measurements.
type Result struct {
	// WriterTimes is each writer's time in seconds for its timed region.
	WriterTimes []float64
	// TotalBytes is the bytes written across all writers.
	TotalBytes float64
	// Elapsed is the wall time of the IO phase: max over writers (overall
	// write time is determined by the slowest writer, as the paper notes).
	Elapsed float64
	// AggregateBW is TotalBytes / Elapsed in bytes/sec.
	AggregateBW float64
	// PerWriterBW is each writer's bytes/sec.
	PerWriterBW []float64
	// ImbalanceFactor is the slowest/fastest write-time ratio (Section II).
	ImbalanceFactor float64
	// FailedWriters counts writers whose write was abandoned with
	// pfs.ErrTargetDown (their bytes are excluded from TotalBytes).
	FailedWriters int
}

// summarize fills the derived fields from WriterTimes and TotalBytes.
func (r *Result) summarize(bytesPerWriter float64) {
	r.Elapsed = 0
	r.PerWriterBW = make([]float64, len(r.WriterTimes))
	for i, t := range r.WriterTimes {
		if t > r.Elapsed {
			r.Elapsed = t
		}
		if t > 0 {
			r.PerWriterBW[i] = bytesPerWriter / t
		}
	}
	if r.Elapsed > 0 {
		r.AggregateBW = r.TotalBytes / r.Elapsed
	}
	r.ImbalanceFactor = stats.ImbalanceFactor(r.WriterTimes)
}

// MeanPerWriterBW returns the average per-writer bandwidth.
func (r *Result) MeanPerWriterBW() float64 {
	return stats.Summarize(r.PerWriterBW).Mean
}

// Run is a launched IOR instance; read Result after the kernel has drained.
type Run struct {
	cfg    Config
	fs     *pfs.FileSystem
	result Result
	done   *simkernel.WaitGroup
}

// Done reports whether all writers have finished.
func (r *Run) Done() bool { return r.done.Count() == 0 }

// OnDone spawns a watcher on the kernel that calls fn (in kernel context)
// once all of the run's writers have finished. It lets harnesses that
// cannot rely on natural drain — e.g. a tracer keeps the kernel alive —
// join on the run and stop the kernel explicitly.
func (r *Run) OnDone(k *simkernel.Kernel, fn func()) {
	k.SpawnJoin("ior-watch", r.done, fn)
}

// Result returns the measurements; it panics if writers are still running.
func (r *Run) Result() Result {
	if !r.Done() {
		panic("ior: Result read before run completed")
	}
	res := r.result
	res.summarize(r.cfg.BytesPerWriter)
	return res
}

// Launch starts an IOR instance on the file system's kernel and returns a
// handle. Files are created (untimed), writers synchronise on a barrier,
// then write simultaneously. Drive the kernel to completion before reading
// the Result.
func Launch(fs *pfs.FileSystem, cfg Config) (*Run, error) {
	if cfg.Writers <= 0 {
		return nil, fmt.Errorf("ior: writers must be positive")
	}
	if cfg.BytesPerWriter < 0 {
		return nil, fmt.Errorf("ior: negative data size")
	}
	osts := cfg.OSTs
	if len(osts) == 0 {
		n := len(fs.OSTs)
		if cfg.Writers < n {
			n = cfg.Writers
		}
		osts = make([]int, n)
		for i := range osts {
			osts[i] = i
		}
	}
	for _, o := range osts {
		if o < 0 || o >= len(fs.OSTs) {
			return nil, fmt.Errorf("ior: OST %d out of range", o)
		}
	}

	run := &Run{cfg: cfg, fs: fs}
	run.result.WriterTimes = make([]float64, cfg.Writers)
	run.done = simkernel.NewWaitGroup(fs.K)
	run.done.Add(cfg.Writers)

	ready := simkernel.NewWaitGroup(fs.K)
	ready.Add(cfg.Writers)
	start := simkernel.NewSignal(fs.K)

	// A starter process releases the writers once all files exist,
	// emulating MPI_Barrier after the untimed open phase.
	fs.K.SpawnJoin("ior-starter", ready, start.Broadcast)

	launchWriters(fs, run, osts, ready, start)
	return run, nil
}

// Execute launches an IOR instance on a fresh region of virtual time and
// runs the kernel until it completes, returning the measurements. Other
// processes already on the kernel (noise, a second IOR) keep running
// concurrently.
func Execute(fs *pfs.FileSystem, cfg Config) (Result, error) {
	run, err := Launch(fs, cfg)
	if err != nil {
		return Result{}, err
	}
	finished := false
	fs.K.SpawnJoin("ior-joiner", run.done, func() {
		finished = true
		fs.K.Stop()
	})
	fs.K.Run()
	if !finished {
		return Result{}, fmt.Errorf("ior: kernel drained before writers finished (deadlock?)")
	}
	return run.Result(), nil
}
