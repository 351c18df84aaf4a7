package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"repro/cluster"
	"repro/internal/pfs"
	"repro/internal/rngx"
	"repro/internal/runner"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// workloadNames are the benchmark's workloads; each is a scenario spec
// named <name>.json in specDir.
var workloadNames = []string{"fig5xl-adaptive", "fig5xl-mpiio", "table1-ior", "jobmix-rw"}

// workload is one loaded spec plus its output check.
type workload struct {
	name  string
	path  string
	spec  scenario.Scenario
	check checker
}

func loadWorkload(name string) (*workload, error) {
	if !slices.Contains(workloadNames, name) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	path := filepath.Join(specDir, name+".json")
	spec, err := scenario.LoadFile(path)
	if err != nil {
		return nil, err
	}
	// Replays run a prefix of the replicas, which is only one point's
	// first samples when the grid has a single point.
	if len(spec.Axes) > 0 {
		return nil, fmt.Errorf("%s: a workload spec must have no axes", path)
	}
	check, err := newChecker(spec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &workload{name: name, path: path, spec: spec, check: check}, nil
}

// clusterConfig is the world a replica of the spec rents, built with seed.
func (w *workload) clusterConfig(seed int64) cluster.Config {
	return cluster.Config{Seed: seed, NumOSTs: w.spec.NumOSTs, ProductionNoise: !w.spec.NoNoise}
}

func (w *workload) machine() string {
	if w.spec.Machine == "" {
		return "jaguar"
	}
	return w.spec.Machine
}

// setupTiming is one set-up: the spec load with its validation, then the
// cold world build for the workload's machine shape.
type setupTiming struct {
	start       time.Time
	load, build time.Duration
}

// setUp loads the spec from disk and builds a fresh world from a fresh
// pool at a seed no earlier set-up used, so the rngx seed memo is cold for
// every per-target stream the world derives.
func (w *workload) setUp(seed int64, rep int) (setupTiming, error) {
	start := time.Now()
	if _, err := scenario.LoadFile(w.path); err != nil {
		return setupTiming{}, err
	}
	loaded := time.Now()
	pool := cluster.NewPool()
	defer pool.Close()
	c, err := pool.Rent(w.machine(), w.clusterConfig(rngx.DeriveSeed(seed, "perfbench-setup", strconv.Itoa(rep))))
	if err != nil {
		return setupTiming{}, err
	}
	built := time.Now()
	pool.Return(c)
	return setupTiming{start: start, load: loaded.Sub(start), build: built.Sub(loaded)}, nil
}

// round is one scenario.Run of a spec's replicas at one seed.
type round struct {
	want    int // replicas the round ran
	samples []scenario.Sample
	// stamps are the host times of the Progress callbacks; replica i ran
	// from stamps[i-1] (or start) to stamps[i].
	start  time.Time
	stamps []time.Time
	err    error
}

// runRound executes the spec as a closed loop with one client: one worker,
// each replica starting when the previous one completed.
func runRound(spec scenario.Scenario, seed int64) round {
	r := round{want: spec.Samples, stamps: make([]time.Time, 0, spec.Samples)}
	r.start = time.Now()
	res, err := scenario.Run(spec, scenario.RunOptions{
		Seed:     seed,
		Parallel: 1,
		Progress: func(done, total int, _ runner.ReplicaKey) {
			r.stamps = append(r.stamps, time.Now())
		},
	})
	if err != nil {
		r.err = err
		return r
	}
	for _, pt := range res.Points {
		r.samples = append(r.samples, pt.Samples...)
	}
	return r
}

// replayDivisor sets how much of the spec a replay round covers: its
// first Samples/replayDivisor replicas.
const replayDivisor = 8

// campaign runs one workload at one seed. The first round runs all of the
// spec's replicas: the sim_* metrics and the output digest come from it.
// Later rounds replay its first replicas until the budget is spent, and
// each replica's host time is its median over the rounds that ran it, so
// a burst of load from elsewhere on the host moves the result little.
// Every replay must reproduce the first round's outputs exactly; a round
// that does not counts all its replicas failed.
type campaign struct {
	w         *workload
	seed      int64
	replay    scenario.Scenario // the spec cut to the replayed replicas
	rounds    int
	attempted int
	failed    int
	first     []outcome         // the first round's replicas
	digest    uint64            // over all the first round's samples
	prefix    uint64            // over the replayed ones
	times     [][]time.Duration // times[i]: replica i's host time in each round that ran it
	problems  []string          // the first few failures, for the report
}

// outcome is what the metrics read from one replica of the first round.
type outcome struct {
	bw        float64 // simulated bandwidth in GB/s (GB = 2^30 bytes, as the repository's figures use)
	elapsed   float64 // simulated seconds
	redirects int     // adaptive writes the coordinator shifted
	metaOps   int     // metadata operations, summed over a job mix's jobs
}

func outcomeOf(s *scenario.Sample) outcome {
	o := outcome{bw: s.AggregateBW / pfs.GB, elapsed: s.Elapsed, redirects: s.AdaptiveWrites}
	for _, j := range s.Jobs {
		o.metaOps += j.MetaOps
	}
	return o
}

// bandwidths lists the first round's simulated bandwidths: AggregateBW,
// which for a job mix is bytes written plus read over the makespan.
func (c *campaign) bandwidths() []float64 {
	out := make([]float64, len(c.first))
	for i, o := range c.first {
		out[i] = o.bw
	}
	return out
}

func newCampaign(w *workload, seed int64) *campaign {
	replay := w.spec
	replay.Samples = max(1, w.spec.Samples/replayDivisor)
	return &campaign{w: w, seed: seed, replay: replay, times: make([][]time.Duration, replay.Samples)}
}

// replaying starts a campaign that only replays, against the reference
// outputs of c.
func (c *campaign) replaying() *campaign {
	r := newCampaign(c.w, c.seed)
	r.first, r.digest, r.prefix = c.first, c.digest, c.prefix
	return r
}

// next is the spec the next round runs.
func (c *campaign) next() scenario.Scenario {
	if c.first == nil {
		return c.w.spec
	}
	return c.replay
}

// runFor runs rounds within budget: at least one, and another only while
// the expected duration of the next still fits in what is left. Each round
// goes to fn as it ends (c.add when fn is nil).
func (c *campaign) runFor(budget time.Duration, fn func(*round)) {
	if fn == nil {
		fn = c.add
	}
	start := time.Now()
	var next time.Duration
	for n := 0; n == 0 || time.Since(start)+next <= budget; n++ {
		spec := c.next()
		t := time.Now()
		r := runRound(spec, c.seed)
		next = time.Since(t) / time.Duration(spec.Samples) * time.Duration(c.replay.Samples)
		fn(&r)
	}
}

func (c *campaign) problem(format string, args ...any) {
	if len(c.problems) < 5 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// add checks a round's outputs and folds its timings in.
func (c *campaign) add(r *round) {
	c.rounds++
	n := r.want
	c.attempted += n
	if r.err != nil {
		c.failed += n
		c.problem("round %d: %v", c.rounds, r.err)
		return
	}
	whole, prefix := newDigest(), newDigest()
	bad := 0
	for i := range r.samples {
		whole.add(&r.samples[i])
		if i < len(c.times) {
			prefix.add(&r.samples[i])
		}
		if err := c.w.check(r.samples[i]); err != nil {
			bad++
			c.problem("round %d replica %d: %v", c.rounds, i, err)
		}
	}
	if len(r.samples) != n {
		bad = n
		c.problem("round %d: %d samples for %d replicas", c.rounds, len(r.samples), n)
	}
	switch {
	case c.first == nil:
		c.first = make([]outcome, len(r.samples))
		for i := range r.samples {
			c.first[i] = outcomeOf(&r.samples[i])
		}
		c.digest, c.prefix = whole.Sum(), prefix.Sum()
	case whole.Sum() != c.prefix:
		bad = n
		c.problem("round %d: digest %016x differs from the first round's %016x", c.rounds, whole.Sum(), c.prefix)
	}
	c.failed += bad
	prev := r.start
	for i, t := range r.stamps {
		if i < len(c.times) {
			c.times[i] = append(c.times[i], t.Sub(prev))
		}
		prev = t
	}
}

// timed is the number of replica host times measured.
func (c *campaign) timed() int {
	n := 0
	for _, ts := range c.times {
		n += len(ts)
	}
	return n
}

// replicaMS is each replayed replica's median host time in milliseconds.
func (c *campaign) replicaMS() []float64 {
	out := make([]float64, 0, len(c.times))
	for _, ts := range c.times {
		if len(ts) > 0 {
			out = append(out, stats.Median(millis(ts)))
		}
	}
	return out
}

// perSecond is replicas completed per host second, at each replica's
// median host time.
func (c *campaign) perSecond() float64 {
	ms := c.replicaMS()
	return float64(len(ms)) / (stats.Summarize(ms).Sum / 1e3)
}
