package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/stats"
)

// setupReps is how many times the traced run sets up before it replays;
// the untraced run sets up setupFirst times first and setupPerRound times
// after every round, so its set-up times sample the host across the run.
const (
	setupReps     = 41
	setupFirst    = 5
	setupPerRound = 2
)

// setUps performs n more set-ups, appending their timings to dst. Each
// starts from a collected heap, as in a fresh process.
func setUps(w *workload, seed int64, n int, dst []setupTiming) ([]setupTiming, error) {
	for i := 0; i < n; i++ {
		runtime.GC()
		t, err := w.setUp(seed, len(dst))
		if err != nil {
			return dst, fmt.Errorf("set-up: %w", err)
		}
		dst = append(dst, t)
	}
	return dst, nil
}

// endToEnd is the untraced run: set up, then replay the spec's replicas in
// rounds for budget, and report what a user of the simulator sees.
func endToEnd(w *workload, seed int64, budget time.Duration) (*result, error) {
	setups, err := setUps(w, seed, setupFirst, nil)
	if err != nil {
		return nil, err
	}
	c := newCampaign(w, seed)
	c.runFor(budget, func(r *round) {
		c.add(r)
		if err == nil {
			setups, err = setUps(w, seed, setupPerRound, setups)
		}
	})
	if err != nil {
		return nil, err
	}
	setup := make([]time.Duration, len(setups))
	for i, s := range setups {
		setup[i] = s.load + s.build
	}

	res := newResult(w.name)
	res.attempted = c.attempted
	res.failed = c.failed
	res.problems = c.problems
	res.correct = c.failed == 0

	ms := c.replicaMS()
	res.set("replicas_per_s", "1/s", c.perSecond())
	res.set("replica_ms_p50", "ms", stats.Median(ms))
	res.set("replica_ms_p90", "ms", stats.Percentile(ms, 90))
	res.set("setup_s", "s", medianDuration(setup))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	res.set("max_rss_mb", "MB", rss)
	bw := c.bandwidths()
	res.set("sim_bw_gbs_p50", "GB/s", stats.Median(bw))
	res.set("sim_bw_cov", "ratio", stats.Summarize(bw).CoV())

	res.note("replica_fail_frac = %.6g ratio", float64(c.failed)/float64(c.attempted))
	res.note("digest = %016x over %d replicas; %d rounds replayed the first %d, %d replica times in all",
		c.digest, w.spec.Samples, c.rounds-1, c.replay.Samples, c.timed())
	return res, nil
}
