package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// traced is the per-layer run. It runs the workload's reference round and
// replays it untraced, then replays it again under a CPU profile with
// spans and runtime counters — the replays must reproduce the reference
// outputs — and finally runs the layer probes. Spans and the profile are
// written to traceDir.
func traced(w *workload, seed int64, budget time.Duration) (*result, error) {
	tr := newSpans()
	root, endRoot := tr.begin("workload "+w.name, 0)
	res := newResult(w.name)

	setID, endSetup := tr.begin("setup", root)
	setups, err := setUps(w, seed, setupReps, nil)
	if err != nil {
		return nil, err
	}
	loads := make([]time.Duration, len(setups))
	builds := make([]time.Duration, len(setups))
	for i, s := range setups {
		loads[i], builds[i] = s.load, s.build
		tr.add("scenario.LoadFile", setID, s.start, s.start.Add(s.load))
		tr.add("cluster.Pool.Rent cold", setID, s.start.Add(s.load), s.start.Add(s.load+s.build))
	}
	endSetup()

	// The reference round, then untraced replays: the reference outputs
	// and host time. What is left of the budget after the reference round
	// is shared by the untraced and the traced replays.
	u := newCampaign(w, seed)
	start := time.Now()
	_, endU := tr.begin("untraced", root)
	u.runFor(0, nil)
	left := budget - time.Since(start)
	u.runFor(left*2/5, nil)
	endU()

	// Traced replay. Rounds are checked after the profile stops, so the
	// profile holds only replica work.
	t := u.replaying()
	tid, endT := tr.begin("traced", root)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	var rounds []round
	t.runFor(left*2/5, func(r *round) { rounds = append(rounds, *r) })
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&after)
	endT()
	for i := range rounds {
		tr.round(tid, &rounds[i])
		t.add(&rounds[i])
	}
	res.attempted = u.attempted + t.attempted
	res.failed = u.failed + t.failed
	res.problems = append(u.problems, t.problems...)
	res.correct = res.failed == 0

	shares, nsamples, err := layerShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range layers {
		res.set("cpu_frac."+l, "ratio", shares[l])
	}
	n := float64(t.timed())
	res.set("alloc_kb_per_replica", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/n)
	res.set("mallocs_per_replica", "count", float64(after.Mallocs-before.Mallocs)/n)
	res.set("gc_cycles_per_replica", "count", float64(after.NumGC-before.NumGC)/n)
	res.set("tracing_overhead_frac", "ratio", t.perSecond()/u.perSecond())

	var simS, metaOps, redirects []float64
	for _, o := range u.first {
		simS = append(simS, o.elapsed)
		redirects = append(redirects, float64(o.redirects))
		metaOps = append(metaOps, float64(o.metaOps))
	}
	simPerReplica := stats.Summarize(simS).Mean
	res.set("sim_s_per_replica", "s", simPerReplica)
	var hostMS, replayedSimS float64
	for i, ms := range u.replicaMS() {
		hostMS += ms
		replayedSimS += u.first[i].elapsed
	}
	res.set("host_us_per_sim_s", "us/s", hostMS*1e3/replayedSimS)
	res.set("pfs.mds_ops_per_replica", "count", stats.Summarize(metaOps).Mean)
	res.set("core.redirects_per_replica", "count", stats.Summarize(redirects).Mean)
	res.set("scenario.load_ms", "ms", medianDuration(loads)*1e3)
	res.set("cluster.cold_build_ms", "ms", medianDuration(builds)*1e3)

	if err := runProbes(w, seed, tr, root, res); err != nil {
		return nil, err
	}
	endRoot()

	res.note("digest = %016x over %d replicas; the first %d replayed %d times untraced and %d times traced; %d profile samples",
		u.digest, w.spec.Samples, u.replay.Samples, u.rounds-1, t.rounds, nsamples)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return nil, err
	}
	res.note("spans and CPU profile written to %s.{spans.json,cpu.pprof}", base)
	return res, nil
}

// runProbes runs every layer probe under its own span.
func runProbes(w *workload, seed int64, tr *spans, root int, res *result) error {
	pid, endProbes := tr.begin("probes", root)
	defer endProbes()
	timed := func(name, unit string, scale float64, probe func() (float64, error)) error {
		_, end := tr.begin(name, pid)
		d, err := probe()
		end()
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		res.set(name, unit, d/scale)
		return nil
	}
	probes := []struct {
		name, unit string
		scale      float64 // nanoseconds per unit
		probe      func() (float64, error)
	}{
		{"cluster.reset_ms", "ms", 1e6, func() (float64, error) { return probeReset(w, seed) }},
		{"rngx.seed_us", "us", 1e3, func() (float64, error) { return probeSeed(seed) }},
		{"simkernel.timer_ns", "ns", 1, probeTimers},
		{"simkernel.mailbox_rt_ns", "ns", 1, probeMailbox},
		{"pfs.write_storm_us", "us", 1e3, func() (float64, error) { return probeWriteStorm(seed) }},
	}
	for _, p := range probes {
		if err := timed(p.name, p.unit, p.scale, p.probe); err != nil {
			return err
		}
	}

	_, end := tr.begin("core.step_ms", pid)
	step, index, err := probeAdaptiveStep(seed)
	end()
	if err != nil {
		return fmt.Errorf("probe core.step_ms: %w", err)
	}
	res.set("core.step_ms", "ms", step/1e6)
	res.set("bp.index_entries", "count", float64(index.NumEntries()))
	_, end = tr.begin("bp.sort_encode_us+bp.decode_us", pid)
	sortEncode, decode, err := probeIndex(index, seed)
	end()
	if err != nil {
		return fmt.Errorf("probe bp: %w", err)
	}
	res.set("bp.sort_encode_us", "us", sortEncode/1e3)
	res.set("bp.decode_us", "us", decode/1e3)
	return nil
}

// selfCheck verifies, for every workload, that its spec loads through
// scenario.LoadFile, that a one-replica smoke run passes the output
// checks, that two runs at one seed agree bit for bit on the digest, the
// sim_* values and the work counts, and that a run under the CPU profiler
// agrees with them too.
func selfCheck(seed int64, out io.Writer) error {
	for _, name := range workloadNames {
		w, err := loadWorkload(name)
		if err != nil {
			return err
		}
		smoke := w.spec
		smoke.Samples = 1
		one := newCampaign(&workload{name: w.name, spec: smoke, check: w.check}, seed)
		r := runRound(smoke, seed)
		one.add(&r)
		if one.failed != 0 {
			return fmt.Errorf("%s: smoke run: %v", name, one.problems)
		}

		small := w.spec
		small.Samples = min(w.spec.Samples, 8)
		var fps [3]fingerprint
		for i := range fps {
			if i == 2 {
				var prof bytes.Buffer
				if err := pprof.StartCPUProfile(&prof); err != nil {
					return err
				}
				fps[i], err = fingerprintOf(w, small, seed)
				pprof.StopCPUProfile()
			} else {
				fps[i], err = fingerprintOf(w, small, seed)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		if fps[0] != fps[1] {
			return fmt.Errorf("%s: two runs at seed %d differ: %+v vs %+v", name, seed, fps[0], fps[1])
		}
		if fps[0] != fps[2] {
			return fmt.Errorf("%s: the profiled run differs from the plain one: %+v vs %+v", name, fps[2], fps[0])
		}
		fmt.Fprintf(out, "selfcheck %s: ok (smoke passed; %d replicas reproduce digest %016x, bw p50 %v GB/s, cov %v, %d redirects, %d metadata ops)\n",
			name, small.Samples, fps[0].digest, fps[0].bwP50, fps[0].bwCoV, fps[0].redirects, fps[0].metaOps)
	}
	return nil
}

// fingerprint is everything a replay at one seed must reproduce exactly.
type fingerprint struct {
	digest       uint64
	bwP50, bwCoV float64
	redirects    int
	metaOps      int
}

func fingerprintOf(w *workload, spec scenario.Scenario, seed int64) (fingerprint, error) {
	c := newCampaign(&workload{name: w.name, spec: spec, check: w.check}, seed)
	r := runRound(spec, seed)
	c.add(&r)
	if c.failed != 0 {
		return fingerprint{}, fmt.Errorf("output checks: %v", c.problems)
	}
	bw := c.bandwidths()
	fp := fingerprint{digest: c.digest, bwP50: stats.Median(bw), bwCoV: stats.Summarize(bw).CoV()}
	for _, o := range c.first {
		fp.redirects += o.redirects
		fp.metaOps += o.metaOps
	}
	return fp, nil
}
