package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/pfs"
)

// mixSpec is a three-job heterogeneous mix at toy scale: a phased
// checkpoint writer, a read-heavy training job and a metadata storm, all
// sharing one 4-OST file system.
func mixSpec() Scenario {
	return Scenario{
		Name:      "mix-test",
		NumOSTs:   4,
		Samples:   1,
		Transport: Transport{Method: "MPI", OSTs: 4},
		Jobs: []JobSpec{
			{Name: "ckpt", Kind: JobKindApp, Generator: "pixie3d-small", Procs: 4,
				Phases: 2, PeriodSeconds: 5},
			{Name: "train", Kind: JobKindMLRead, Procs: 4, SizeMB: 2,
				Phases: 3, PeriodSeconds: 2, StartSeconds: 1},
			{Name: "meta", Kind: JobKindMDTest, Procs: 2, FilesPerRank: 4,
				Phases: 2, PeriodSeconds: 1},
		},
	}
}

func TestJobMixRun(t *testing.T) {
	res, err := Run(mixSpec(), RunOptions{Seed: 42, Parallel: 1})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(res.Points) != 1 || len(res.Points[0].Samples) != 1 {
		t.Fatalf("want 1 point x 1 sample, got %+v", res.Points)
	}
	s := res.Points[0].Samples[0]
	if len(s.Jobs) != 3 {
		t.Fatalf("want 3 job samples, got %d", len(s.Jobs))
	}
	byName := map[string]JobSample{}
	for _, j := range s.Jobs {
		byName[j.Name] = j
	}

	ckpt := byName["ckpt"]
	// 4 ranks x 2 phases x 2 MB of data, plus a sliver of transport
	// index/metadata writes (also attributed to the job).
	if wantW := float64(4 * 2 * 2 * pfs.MB); ckpt.BytesWritten < wantW || ckpt.BytesWritten > wantW*1.01 {
		t.Errorf("ckpt wrote %g bytes, want within 1%% above %g", ckpt.BytesWritten, wantW)
	}
	if ckpt.BytesRead != 0 {
		t.Errorf("ckpt read %g bytes, want 0", ckpt.BytesRead)
	}

	train := byName["train"]
	if wantR := float64(4 * 3 * 2 * pfs.MB); train.BytesRead != wantR { // 4 ranks x 3 phases x 2 MB
		t.Errorf("train read %g bytes, want %g", train.BytesRead, wantR)
	}
	if train.BytesWritten != 0 {
		t.Errorf("train wrote %g bytes, want 0", train.BytesWritten)
	}
	if train.Start != 1 {
		t.Errorf("train start = %g, want 1", train.Start)
	}

	meta := byName["meta"]
	if wantW := float64(2 * 2 * 4 * 4096); meta.BytesWritten != wantW { // 2 ranks x 2 phases x 4 files x 4 KiB
		t.Errorf("meta wrote %g bytes, want %g", meta.BytesWritten, wantW)
	}
	if meta.MetaOps < 2*2*4 {
		t.Errorf("meta did %d metadata ops, want >= %d", meta.MetaOps, 2*2*4)
	}

	var total, makespan float64
	for _, j := range s.Jobs {
		total += j.BytesWritten + j.BytesRead
		if j.Elapsed <= j.Start {
			t.Errorf("job %s finished at %g before its start %g", j.Name, j.Elapsed, j.Start)
		}
		if j.BW <= 0 {
			t.Errorf("job %s has non-positive bandwidth %g", j.Name, j.BW)
		}
		if j.Elapsed > makespan {
			makespan = j.Elapsed
		}
	}
	if s.TotalBytes != total {
		t.Errorf("aggregate TotalBytes = %g, want per-job sum %g", s.TotalBytes, total)
	}
	if s.Elapsed != makespan {
		t.Errorf("aggregate Elapsed = %g, want makespan %g", s.Elapsed, makespan)
	}
}

// TestJobMixDeterminism pins the reuse and parallelism contracts for
// multi-application worlds: 1 worker, 8 workers, and fresh-world-per-replica
// must all produce bit-identical results.
func TestJobMixDeterminism(t *testing.T) {
	spec := mixSpec()
	spec.Samples = 3 // several replicas per worker so pooled Reset actually runs

	run := func(parallel int, noReuse string) []PointResult {
		t.Setenv("REPRO_NO_REUSE", noReuse)
		res, err := Run(spec, RunOptions{Seed: 7, Parallel: parallel})
		if err != nil {
			t.Fatalf("run (parallel=%d REPRO_NO_REUSE=%q): %v", parallel, noReuse, err)
		}
		return res.Points
	}

	want := run(1, "")
	if got := run(8, ""); !reflect.DeepEqual(got, want) {
		t.Errorf("8 workers diverged from sequential:\n got %+v\nwant %+v", got, want)
	}
	for _, parallel := range []int{2, 4} {
		if got := run(parallel, "1"); !reflect.DeepEqual(got, want) {
			t.Errorf("fresh worlds on %d workers diverged from reused worlds:\n got %+v\nwant %+v", parallel, got, want)
		}
	}
}

func TestJobMixJSONRoundTrip(t *testing.T) {
	s := mixSpec()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got.Jobs, s.Jobs) {
		t.Errorf("jobs differ after round trip:\n got %+v\nwant %+v", got.Jobs, s.Jobs)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("round-tripped spec invalid: %v", err)
	}
}

// TestJobMixNJobsCycling checks the "njobs" axis: templates cycle and
// replicated jobs get distinguishing name suffixes, so the shape key
// differs for every concurrency level.
func TestJobMixNJobsCycling(t *testing.T) {
	s := mixSpec()
	cfg, err := s.resolve(Params{"njobs": NumValue(5)})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	var names []string
	for _, j := range cfg.jobs {
		names = append(names, j.name)
	}
	want := []string{"ckpt", "train", "meta", "ckpt#2", "train#2"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("names = %v, want %v", names, want)
	}

	cfg1, err := s.resolve(Params{"njobs": NumValue(1)})
	if err != nil {
		t.Fatalf("resolve njobs=1: %v", err)
	}
	if cfg.shape == cfg1.shape {
		t.Errorf("shape key did not change with njobs: %q", cfg.shape)
	}
}

// TestJobMixMethodAxis checks the static-vs-adaptive sweep knob: a
// "method" binding overrides every app job's transport method.
func TestJobMixMethodAxis(t *testing.T) {
	s := mixSpec()
	cfg, err := s.resolve(Params{"method": StrValue("ADAPTIVE")})
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	for _, j := range cfg.jobs {
		if j.kind == JobKindApp && j.transport.Method != "ADAPTIVE" {
			t.Errorf("job %s method = %q, want ADAPTIVE", j.name, j.transport.Method)
		}
	}
}

func TestJobMixValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(s *Scenario)
		want string
	}{
		{"no jobs", func(s *Scenario) { s.Jobs = nil; s.Workload.Kind = KindJobMix }, "jobs array"},
		{"jobs on single-workload kind", func(s *Scenario) { s.Workload = Workload{Kind: KindIOR, Writers: 2, SizeMB: 1} }, "jobs array"},
		{"duplicate names", func(s *Scenario) { s.Jobs[1].Name = "ckpt" }, "duplicate job name"},
		{"unknown job kind", func(s *Scenario) { s.Jobs[0].Kind = "spark" }, "unknown job kind"},
		{"no procs", func(s *Scenario) { s.Jobs[2].Procs = 0 }, "positive process count"},
		{"app without generator", func(s *Scenario) { s.Jobs[0].Generator = "" }, "needs a generator"},
		{"unknown generator", func(s *Scenario) { s.Jobs[0].Generator = "hpl" }, "unknown generator"},
		{"negative timing", func(s *Scenario) { s.Jobs[1].StartSeconds = -1 }, "negative phase timing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mixSpec()
			tc.mut(&s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}
