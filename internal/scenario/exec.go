package scenario

import (
	"fmt"
	"time"

	"repro/adios"
	"repro/cluster"
	"repro/internal/interference"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/rngx"
	"repro/internal/simkernel"
	"repro/internal/stats"
)

// Sample is one replica's measurements, uniform across workload kinds
// (fields a kind does not produce stay zero).
type Sample struct {
	// Elapsed is the replica's measured wall time in simulated seconds
	// (write phase for the IO kinds, storm completion for openstorm).
	Elapsed float64
	// TotalBytes is the data written.
	TotalBytes float64
	// AggregateBW is TotalBytes / Elapsed in bytes/sec.
	AggregateBW float64
	// WriterTimes are the per-writer (or per-rank) seconds.
	WriterTimes []float64
	// PerWriterBW are the per-writer bandwidths (IOR kinds).
	PerWriterBW []float64
	// AdaptiveWrites counts redirected writes (app kind, adaptive method).
	AdaptiveWrites int
	// WriteFailures counts client writes abandoned with ErrTargetDown
	// against a dead storage target (app kind; the adaptive method retries
	// them elsewhere, the static baselines lose the data).
	WriteFailures int
	// FailedWriters counts IOR writers whose payload was lost to a dead
	// target (IOR kinds).
	FailedWriters int
	// QueuePeak is the metadata server's queue high-water mark (openstorm).
	QueuePeak int
	// Jobs are the per-job measurements of a job-mix replica, in spec
	// order (nil for the single-workload kinds).
	Jobs []JobSample
}

// JobSample is one job's measurement within a job-mix replica, attributed
// through the file system's per-job accounting.
type JobSample struct {
	// Name and Kind identify the job (JobSpec.Name, JobSpec.Kind).
	Name string
	Kind string
	// Ranks is the job's process count.
	Ranks int
	// Start is the job's first phase start in simulated seconds.
	Start float64
	// Elapsed is when the job's last phase completed (seconds from t=0).
	Elapsed float64
	// BytesWritten / BytesRead are the job's attributed data volumes.
	BytesWritten float64
	BytesRead    float64
	// MetaOps is the job's attributed metadata operation count.
	MetaOps int
	// BW is the job's achieved bandwidth: (written+read) over its active
	// span (Elapsed - Start).
	BW float64
}

// MeanPerWriterBW returns the average per-writer bandwidth.
func (s Sample) MeanPerWriterBW() float64 { return stats.Summarize(s.PerWriterBW).Mean }

// ImbalanceFactor returns slowest/fastest over the writer times.
func (s Sample) ImbalanceFactor() float64 { return stats.ImbalanceFactor(s.WriterTimes) }

// execCampaign executes one collective output step of the point's
// application on its transport and returns its measurements.
func (s *Scenario) execCampaign(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, release, err := s.rent(cfg, seed, pool, tc)
	if err != nil {
		return Sample{}, err
	}
	defer release()

	w := c.NewWorld(cfg.procs)
	io, err := adios.NewIO(c, w, cfg.transport.adiosOptions())
	if err != nil {
		return Sample{}, err
	}

	var out campaignOut
	// One slab per replica instead of one heap object per rank.
	conts := make([]campaignCont, cfg.procs)
	j := w.LaunchCont(func(i int) cluster.RankCont {
		conts[i] = campaignCont{io: io, stepName: cfg.stepName, perRank: cfg.perRank, out: &out}
		return &conts[i]
	})
	c.RunUntilDone(j)
	if out.err != nil {
		return Sample{}, out.err
	}
	res := out.res
	if !j.Done() || res == nil {
		return Sample{}, fmt.Errorf("scenario: campaign did not complete")
	}
	return Sample{
		Elapsed:     res.Elapsed,
		AggregateBW: res.AggregateBW(),
		// Ownership transfers: the step result's per-writer slice is built
		// fresh for every step and nothing world-owned aliases it, so the
		// sample keeps it without the old defensive re-copy.
		WriterTimes:    res.WriterTimes,
		TotalBytes:     res.TotalBytes,
		AdaptiveWrites: res.AdaptiveWrites,
		WriteFailures:  res.WriteFailures,
	}, nil
}

// failureConfig materialises the spec's declared failure script for one
// resolved point (zero value when the point leaves it disarmed).
func (s *Scenario) failureConfig(on bool) interference.FailureConfig {
	fspec := s.Interference.Failures
	if !on || !fspec.declared() {
		return interference.FailureConfig{}
	}
	cfg := interference.FailureConfig{
		Enabled:     true,
		DeadTimeout: fspec.DeadTimeoutSeconds,
		MDSStallAt:  fspec.MDSStallAtSeconds,
		MDSStallFor: fspec.MDSStallSeconds,
		Episodes:    make([]interference.FailureEpisode, len(fspec.Episodes)),
	}
	for i, ep := range fspec.Episodes {
		cfg.Episodes[i] = interference.FailureEpisode{
			OST:        ep.OST,
			At:         ep.AtSeconds,
			DeadFor:    ep.DeadSeconds,
			RebuildFor: ep.RebuildSeconds,
			RebuildTax: ep.RebuildTax,
		}
	}
	return cfg
}

// execReplica runs one grid-point replica of the scenario on a world rented
// from the worker's pool (nil pool = fresh world per replica).
func (s *Scenario) execReplica(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	switch cfg.kind {
	case KindApp:
		return s.execCampaign(cfg, seed, pool, tc)
	case KindIOR:
		return s.execIOR(cfg, seed, pool, tc)
	case KindPairedIOR:
		return s.execPairedIOR(cfg, seed, pool, tc)
	case KindOpenStorm:
		return s.execOpenStorm(cfg, seed, pool, tc)
	case KindJobMix:
		return s.execJobMix(cfg, seed, pool, tc)
	}
	return Sample{}, fmt.Errorf("scenario: unknown workload kind %q", cfg.kind)
}

// adiosOptions maps the declarative transport onto the middleware options.
func (t Transport) adiosOptions() adios.Options {
	return adios.Options{
		Method:             adios.Method(t.Method),
		OSTs:               targetList(t.OSTs),
		StaggerOpens:       time.Duration(t.StaggerOpensMS * float64(time.Millisecond)),
		WritersPerTarget:   t.WritersPerTarget,
		HistoryAware:       t.HistoryAware,
		DisableAdaptation:  t.DisableAdaptation,
		NoGlobalIndex:      t.NoGlobalIndex,
		StagingNodes:       t.StagingNodes,
		StagingBufferBytes: t.StagingBufferMB * pfs.MB,
		StagingLeastLoaded: t.StagingLeastLoaded,
		MPISplitFiles:      t.MPISplitFiles,
	}
}

// execIOR runs one IOR benchmark sample in a clean environment — the shape
// of the Figure 1 grid cells and Table I's hourly tests.
func (s *Scenario) execIOR(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, release, err := s.rent(cfg, seed, pool, tc)
	if err != nil {
		return Sample{}, err
	}
	defer release()
	r, err := ior.Execute(c.FileSystem(), ior.Config{
		Writers:        cfg.writers,
		OSTs:           iorTargets(cfg),
		BytesPerWriter: cfg.bytes,
		Mode:           iorMode(cfg),
		Flush:          cfg.flush,
	})
	if err != nil {
		return Sample{}, err
	}
	return iorSample(r), nil
}

// execPairedIOR runs the XTP shape: one IOR alone, or two simultaneous IOR
// programs overlapping at a seed-varied phase, measuring the first.
func (s *Scenario) execPairedIOR(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, release, err := s.rent(cfg, seed, pool, tc)
	if err != nil {
		return Sample{}, err
	}
	defer release()
	fs := c.FileSystem()
	k := c.Kernel()

	iorCfg := ior.Config{
		Writers:        cfg.writers,
		OSTs:           iorTargets(cfg),
		BytesPerWriter: cfg.bytes,
		Mode:           iorMode(cfg),
		Flush:          cfg.flush,
	}

	// Join on the runs explicitly: a tracer's sampler would keep the
	// kernel alive forever under natural drain.
	runs := simkernel.NewWaitGroup(k)
	runs.Add(1)
	if cfg.withInterference {
		runs.Add(1)
	}
	k.SpawnJoin("scenario-joiner", runs, k.Stop)

	iorCfg.Tag = "A"
	runA, err := ior.Launch(fs, iorCfg)
	if err != nil {
		return Sample{}, err
	}
	runA.OnDone(k, runs.Done)
	var runB *ior.Run
	var launchErr error
	if cfg.withInterference {
		// The second job starts at a seed-varied offset within the first
		// job's run, as two batch jobs on a real machine overlap at an
		// arbitrary phase — the source of the up-to-43% variability the
		// paper measures on XTP.
		rng := rngx.NewNamed(seed, "xtp-phase")
		estimate := float64(cfg.writers) * cfg.bytes / (float64(len(fs.OSTs)) * fs.Cfg.DiskBW * 0.8)
		delay := rng.Uniform(0, estimate)
		k.AfterSeconds(delay, func() {
			bCfg := iorCfg
			bCfg.Tag = "B"
			runB, launchErr = ior.Launch(fs, bCfg)
			if launchErr == nil {
				runB.OnDone(k, runs.Done)
			}
		})
	}
	c.Run()
	if launchErr != nil {
		return Sample{}, launchErr
	}
	if !runA.Done() || (runB != nil && !runB.Done()) {
		return Sample{}, fmt.Errorf("scenario: paired IOR did not complete")
	}
	return iorSample(runA.Result()), nil
}

// execOpenStorm has `writers` ranks create one file each (stagger-spaced)
// and measures the storm completion time and MDS queue peak.
func (s *Scenario) execOpenStorm(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, release, err := s.rent(cfg, seed, pool, tc)
	if err != nil {
		return Sample{}, err
	}
	defer release()
	fs := c.FileSystem()
	k := c.Kernel()
	wg := simkernel.NewWaitGroup(k)
	wg.Add(cfg.writers)
	var last simkernel.Time
	for i := 0; i < cfg.writers; i++ {
		k.SpawnCont("opener", &stormOpener{
			fs:      fs,
			name:    fmt.Sprintf("storm.%06d", i),
			ost:     i % len(fs.OSTs),
			stagger: cfg.stagger > 0,
			delay:   time.Duration(i) * cfg.stagger,
			wg:      wg,
			last:    &last,
		})
	}
	// Join explicitly: a tracer's sampler would keep the kernel alive
	// forever under natural drain, and the joiner perturbs nothing (no
	// random draws, no storage traffic).
	k.SpawnJoin("scenario-joiner", wg, k.Stop)
	k.Run()
	return Sample{Elapsed: last.Seconds(), QueuePeak: fs.MDS.Stats.MaxQueue}, nil
}

// execJobMix co-schedules the point's resolved jobs onto one shared file
// system: every job is its own application world (own barriers, own job id
// in the per-job traffic accounting), launched at t=0 and pacing its I/O
// phases by its own start/period clock. The kernel stops when every job's
// last phase completes; per-job measurements come from the file system's
// attribution counters plus each job's observed completion time.
func (s *Scenario) execJobMix(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (Sample, error) {
	c, release, err := s.rent(cfg, seed, pool, tc)
	if err != nil {
		return Sample{}, err
	}
	defer release()

	fs := c.FileSystem()
	k := c.Kernel()
	numOSTs := len(fs.OSTs)

	type jobRun struct {
		id  int
		end simkernel.Time
		err error
	}
	runs := make([]*jobRun, len(cfg.jobs))
	all := simkernel.NewWaitGroup(k)
	all.Add(len(cfg.jobs))

	for ji := range cfg.jobs {
		jc := cfg.jobs[ji]
		run := &jobRun{id: fs.RegisterJob(jc.name)}
		runs[ji] = run
		w := c.NewJobWorld(jc.name, run.id, jc.procs)

		// Each kind launches its continuation machine (cont.go).
		var mk func(i int) cluster.RankCont
		switch jc.kind {
		case JobKindApp:
			io, err := adios.NewIO(c, w, jc.transport.adiosOptions())
			if err != nil {
				return Sample{}, err
			}
			mk = func(i int) cluster.RankCont {
				return &jobAppCont{
					phases: jc.phases, start: jc.start, period: jc.period,
					io: io, names: jc.names, perRank: jc.perRank, errp: &run.err,
				}
			}
		case JobKindMLRead:
			mk = func(i int) cluster.RankCont {
				// The dataset shard pre-exists the training run; its
				// create is the job's only metadata cost.
				return &jobMLReadCont{
					phases: jc.phases, start: jc.start, period: jc.period,
					fs: fs, name: jc.names[i],
					ost: i % numOSTs, bytes: int64(jc.bytes), errp: &run.err,
				}
			}
		case JobKindMDTest:
			burst := jc.phases * jc.files // one rank's names
			mk = func(i int) cluster.RankCont {
				return &jobMDTestCont{
					phases: jc.phases, files: jc.files, start: jc.start, period: jc.period,
					fs: fs, names: jc.names[i*burst : (i+1)*burst], rank: i, numOSTs: numOSTs,
					bytes: int64(jc.bytes), errp: &run.err,
				}
			}
		default:
			return Sample{}, fmt.Errorf("scenario: unknown job kind %q", jc.kind)
		}

		k.SpawnJoin("jobmix-watch", w.MPI().LaunchCont(jc.name, mk), func() {
			run.end = k.Now()
			all.Done()
		})
	}

	// Noise and interference processes run forever, so join explicitly on
	// the jobs rather than draining the kernel.
	k.SpawnJoin("jobmix-joiner", all, k.Stop)
	k.Run()

	out := Sample{Jobs: make([]JobSample, 0, len(cfg.jobs))}
	var makespan float64
	for ji, run := range runs {
		if run.err != nil {
			return Sample{}, run.err
		}
		jc := cfg.jobs[ji]
		acct := fs.JobIO(run.id)
		js := JobSample{
			Name:         jc.name,
			Kind:         jc.kind,
			Ranks:        jc.procs,
			Start:        jc.start,
			Elapsed:      run.end.Seconds(),
			BytesWritten: acct.BytesWritten,
			BytesRead:    acct.BytesRead,
			MetaOps:      acct.MetaOps,
		}
		if span := js.Elapsed - js.Start; span > 0 {
			js.BW = (js.BytesWritten + js.BytesRead) / span
		}
		out.TotalBytes += js.BytesWritten + js.BytesRead
		if js.Elapsed > makespan {
			makespan = js.Elapsed
		}
		out.Jobs = append(out.Jobs, js)
	}
	out.Elapsed = makespan
	if makespan > 0 {
		out.AggregateBW = out.TotalBytes / makespan
	}
	return out, nil
}

// rent is every executor's prelude: rent the replica's world from pool
// for the point's machine and failure script, degrade the slow targets,
// start the artificial interference program when the point's condition
// asks for it, and attach the tracer. Defer the returned release: it
// captures the trace while the world is still live, then returns the
// world to the pool.
func (s *Scenario) rent(cfg replicaCfg, seed int64, pool *cluster.Pool, tc *traceCapture) (*cluster.Cluster, func(), error) {
	c, err := pool.Rent(cfg.machine, cluster.Config{
		Seed:            seed,
		NumOSTs:         cfg.numOSTs,
		ProductionNoise: cfg.noise,
		WorldShape:      cfg.shape,
		Failures:        s.failureConfig(cfg.failures),
	})
	if err != nil {
		return nil, nil, err
	}
	release := func() {
		tc.finish()
		pool.Return(c)
	}
	if err := applySlow(c, s.Interference.SlowOSTs); err != nil {
		release()
		return nil, nil, err
	}
	if cfg.condition == ConditionInterference {
		// The paper's artificial interference by default: stripe count 8
		// (two applications at the default stripe count of 4), three 1 GB
		// writers per target.
		si := s.Interference
		c.StartArtificialInterference(si.OSTs, si.ProcsPerOST, si.ChunkMB*pfs.MB)
	}
	tc.attach(c)
	return c, release, nil
}

func applySlow(c *cluster.Cluster, slow []SlowOST) error {
	for _, so := range slow {
		if so.Index < 0 || so.Index >= c.NumOSTs() {
			return fmt.Errorf("scenario: slow OST index %d out of range (machine has %d)", so.Index, c.NumOSTs())
		}
		c.SlowOST(so.Index, so.Factor)
	}
	return nil
}

func iorTargets(cfg replicaCfg) []int {
	if cfg.pin && cfg.numOSTs > 0 {
		return targetList(cfg.numOSTs)
	}
	return nil
}

func iorMode(cfg replicaCfg) ior.Mode {
	if cfg.shared {
		return ior.SharedFile
	}
	return ior.FilePerProcess
}

func iorSample(r ior.Result) Sample {
	return Sample{
		Elapsed:       r.Elapsed,
		TotalBytes:    r.TotalBytes,
		AggregateBW:   r.AggregateBW,
		WriterTimes:   r.WriterTimes,
		PerWriterBW:   r.PerWriterBW,
		FailedWriters: r.FailedWriters,
	}
}

// targetList returns [0, 1, ..., n), or nil for n <= 0 (= all targets).
func targetList(n int) []int {
	if n <= 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
