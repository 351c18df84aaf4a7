package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/rngx"
)

func testKeys(points, samples int) []ReplicaKey {
	var pts []string
	for p := 0; p < points; p++ {
		pts = append(pts, fmt.Sprintf("point=%d", p))
	}
	return Keys("test", pts, samples)
}

func TestRunCollectsInKeyOrder(t *testing.T) {
	keys := testKeys(8, 16)
	for _, parallel := range []int{1, 2, 8, 64} {
		got, err := RunWorkers(Options{Parallel: parallel}, keys, func(k ReplicaKey, _ any) (string, error) {
			return k.String(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) {
			t.Fatalf("parallel=%d: %d results for %d keys", parallel, len(got), len(keys))
		}
		for i, k := range keys {
			if got[i] != k.String() {
				t.Fatalf("parallel=%d: result %d = %q, want %q", parallel, i, got[i], k)
			}
		}
	}
}

// TestRunDeterministicAcrossWorkerCounts is the core contract: replica
// outputs derived from key seeds are bit-identical regardless of the worker
// count, because seeds come from keys, never from scheduling order.
func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	keys := testKeys(6, 20)
	replica := func(k ReplicaKey, _ any) (float64, error) {
		src := rngx.New(k.Seed(42))
		sum := 0.0
		for i := 0; i < 100; i++ {
			sum += src.Float64()
		}
		return sum, nil
	}
	seq, err := RunWorkers(Options{Parallel: 1}, keys, replica)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{2, 4, 8} {
		par, err := RunWorkers(Options{Parallel: parallel}, keys, replica)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if seq[i] != par[i] {
				t.Fatalf("parallel=%d: replica %d diverged: %v vs %v",
					parallel, i, seq[i], par[i])
			}
		}
	}
}

func TestRunReportsEarliestError(t *testing.T) {
	keys := testKeys(4, 8)
	boom := errors.New("boom")
	_, err := RunWorkers(Options{Parallel: 8}, keys, func(k ReplicaKey, _ any) (int, error) {
		if k.Sample >= 5 {
			return 0, fmt.Errorf("%w at %s", boom, k)
		}
		return k.Sample, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	var re *Error
	if !errors.As(err, &re) {
		t.Fatalf("error %T does not wrap *runner.Error", err)
	}
	if !errors.Is(err, boom) {
		t.Fatal("cause not unwrapped")
	}
	// The earliest failing key in input order is point=0 sample=5,
	// regardless of which worker failed first on the clock.
	if re.Key.Point != "point=0" || re.Key.Sample != 5 {
		t.Fatalf("error key = %v, want point=0 sample 5", re.Key)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	keys := testKeys(1, 1000)
	var ran atomic.Int64
	_, err := RunWorkers(Options{Parallel: 2, Context: ctx}, keys, func(k ReplicaKey, _ any) (int, error) {
		if ran.Add(1) == 10 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop dispatch (ran %d)", n)
	}
}

func TestRunProgressMonotonic(t *testing.T) {
	keys := testKeys(4, 25)
	var calls int
	last := 0
	_, err := RunWorkers(Options{
		Parallel: 8,
		Progress: func(done, total int, k ReplicaKey) {
			calls++
			if total != len(keys) {
				t.Errorf("total = %d, want %d", total, len(keys))
			}
			if done != last+1 {
				t.Errorf("done jumped %d -> %d", last, done)
			}
			last = done
		},
	}, keys, func(k ReplicaKey, _ any) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(keys) {
		t.Fatalf("progress calls = %d, want %d", calls, len(keys))
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	out, err := RunWorkers(Options{}, nil, func(k ReplicaKey, _ any) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v, %v", out, err)
	}
	// Parallel<=0 defaults to GOMAXPROCS and must still work.
	out, err = RunWorkers(Options{Parallel: -3}, testKeys(2, 2), func(k ReplicaKey, _ any) (int, error) {
		return k.Sample, nil
	})
	if err != nil || len(out) != 4 {
		t.Fatalf("default-parallel run: %v, %v", out, err)
	}
}

func TestKeysCanonicalOrder(t *testing.T) {
	keys := Keys("d", []string{"a", "b"}, 2)
	want := []ReplicaKey{
		{"d", "a", 0}, {"d", "a", 1},
		{"d", "b", 0}, {"d", "b", 1},
	}
	if len(keys) != len(want) {
		t.Fatalf("len = %d", len(keys))
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys[%d] = %v, want %v", i, keys[i], want[i])
		}
	}
	one := SampleKeys("d", "a", 3)
	if len(one) != 3 || one[2] != (ReplicaKey{"d", "a", 2}) {
		t.Fatalf("SampleKeys = %v", one)
	}
}

func TestReplicaKeySeedsDistinct(t *testing.T) {
	seen := map[int64]ReplicaKey{}
	for _, k := range testKeys(32, 64) {
		s := k.Seed(42)
		if prev, ok := seen[s]; ok {
			t.Fatalf("keys %v and %v share seed %d", prev, k, s)
		}
		seen[s] = k
	}
}

// TestWorkerInitPerWorker pins the worker-local state contract: WorkerInit
// runs exactly once per worker goroutine, every replica sees its own
// worker's value, and every cleanup runs after the campaign.
func TestWorkerInitPerWorker(t *testing.T) {
	keys := testKeys(4, 32)
	var inits, cleanups atomic.Int64
	got, err := RunWorkers(Options{
		Parallel: 4,
		WorkerInit: func() (any, func()) {
			id := inits.Add(1)
			return id, func() { cleanups.Add(1) }
		},
	}, keys, func(k ReplicaKey, local any) (int64, error) {
		id, ok := local.(int64)
		if !ok || id < 1 {
			t.Errorf("replica %v got local %v, want its worker's init value", k, local)
		}
		return id, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := inits.Load(); n != 4 {
		t.Fatalf("WorkerInit ran %d times for 4 workers", n)
	}
	if n := cleanups.Load(); n != 4 {
		t.Fatalf("%d cleanups ran, want 4", n)
	}
	// Which worker runs which replica is a scheduling race; only validity of
	// the local value is guaranteed, not its spread.
	for i, id := range got {
		if id < 1 || id > 4 {
			t.Fatalf("replica %d saw worker value %d, want 1..4", i, id)
		}
	}
}

// TestWorkerInitCleanupOnCancellation is the pool-lifecycle guarantee:
// worker cleanups (which return rented worlds) run even when the campaign is
// cancelled mid-flight.
func TestWorkerInitCleanupOnCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	keys := testKeys(1, 500)
	var inits, cleanups, ran atomic.Int64
	_, err := RunWorkers(Options{
		Parallel: 4,
		Context:  ctx,
		WorkerInit: func() (any, func()) {
			inits.Add(1)
			return nil, func() { cleanups.Add(1) }
		},
	}, keys, func(k ReplicaKey, _ any) (int, error) {
		if ran.Add(1) == 5 {
			cancel()
		}
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inits.Load() != cleanups.Load() {
		t.Fatalf("%d inits but %d cleanups after cancellation", inits.Load(), cleanups.Load())
	}
	if cleanups.Load() == 0 {
		t.Fatal("no cleanups ran")
	}
}

// TestWorkerInitCleanupOnReplicaError mirrors the cancellation test for the
// replica-failure path: a failing replica must not leak worker state.
func TestWorkerInitCleanupOnReplicaError(t *testing.T) {
	keys := testKeys(2, 8)
	var cleanups atomic.Int64
	boom := errors.New("boom")
	_, err := RunWorkers(Options{
		Parallel: 2,
		WorkerInit: func() (any, func()) {
			return nil, func() { cleanups.Add(1) }
		},
	}, keys, func(k ReplicaKey, _ any) (int, error) {
		if k.Sample == 3 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if n := cleanups.Load(); n != 2 {
		t.Fatalf("%d cleanups ran after replica error, want 2", n)
	}
}
