package experiments

import (
	"reflect"
	"testing"
)

// TestNoReuseBitIdentical pins the world-reuse escape hatch: with
// REPRO_NO_REUSE=1 every replica builds a fresh world instead of resetting
// a pooled one, and the results must be bit-identical to the default path
// — including the failure sweep with its script armed, so the health
// lifecycle survives pooling — on two workers.
func TestNoReuseBitIdentical(t *testing.T) {
	run := func(noReuse string) (*Fig1Result, *FailureSweepResult) {
		t.Helper()
		t.Setenv("REPRO_NO_REUSE", noReuse)
		f1, err := Fig1(Fig1Options{OSTs: 4, Ratios: []int{1, 4}, SizesMB: []float64{8}, Samples: 2, Seed: 23, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := FailureSweep(FailureSweepOptions{Procs: 16, Samples: 2, NumOSTs: 8, Seed: 23, Parallel: 2})
		if err != nil {
			t.Fatal(err)
		}
		return f1, fs
	}
	wantF1, wantFS := run("")
	gotF1, gotFS := run("1")
	if !reflect.DeepEqual(gotF1.Samples, wantF1.Samples) {
		t.Errorf("Fig1 samples diverged without world reuse:\n got %v\nwant %v", gotF1.Samples, wantF1.Samples)
	}
	if !reflect.DeepEqual(gotFS.Cases, wantFS.Cases) {
		t.Errorf("failure-sweep cases diverged without world reuse:\n got %+v\nwant %+v", gotFS.Cases, wantFS.Cases)
	}
}
