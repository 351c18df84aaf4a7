// Package runner executes simulation campaigns: large sets of independent
// replicas (one deterministic-kernel simulation each) spread across a worker
// pool. Every table and figure of the paper is a statistics-over-samples
// artifact — Table I alone is 469 hourly IOR runs, the Section IV grids are
// method × condition × procs × samples sweeps — and the replicas share no
// state, so the layer above the DES kernel is embarrassingly parallel.
//
// The contract that keeps parallel campaigns trustworthy:
//
//   - Each replica is identified by a ReplicaKey (driver, grid point, sample
//     index) from which its seed is derived via rngx.DeriveSeed, never from
//     its scheduling order. A replica's simulated world is therefore a pure
//     function of its key and the master seed.
//   - Results are collected positionally: RunWorkers returns results[i] for
//     keys[i] regardless of completion order, so a campaign's output is
//     bit-identical whether it ran on 1 worker or 64.
//   - Errors are captured per replica and reported for the earliest failed
//     key (again independent of scheduling), wrapped in *Error with the key
//     attached.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/rngx"
)

// ReplicaKey names one replica of a campaign: which experiment driver it
// belongs to, which grid point it samples, and its sample index at that
// point.
type ReplicaKey struct {
	// Driver is the experiment family ("fig1", "table1", "eval", ...).
	Driver string
	// Point labels the grid point ("size=8MB/ratio=4", "Jaguar", ...).
	Point string
	// Sample is the replication index at the point.
	Sample int
}

// Seed derives the replica's master seed. Two distinct keys get unrelated
// seeds (SplitMix64 mixing), and the same key always gets the same seed.
func (k ReplicaKey) Seed(master int64) int64 {
	return rngx.DeriveSeed(master, k.Driver, k.Point, strconv.Itoa(k.Sample))
}

func (k ReplicaKey) String() string {
	return fmt.Sprintf("%s[%s#%d]", k.Driver, k.Point, k.Sample)
}

// Error is a replica failure with its key attached.
type Error struct {
	Key ReplicaKey
	Err error
}

func (e *Error) Error() string { return fmt.Sprintf("replica %s: %v", e.Key, e.Err) }
func (e *Error) Unwrap() error { return e.Err }

// Options configures a campaign run.
type Options struct {
	// Parallel bounds the worker count: n>1 uses n workers, 1 forces the
	// sequential path, and <=0 uses runtime.GOMAXPROCS(0).
	Parallel int
	// Context cancels the campaign between replicas (nil = background).
	// Replicas already running complete; unstarted ones are skipped and the
	// context's error is returned.
	Context context.Context
	// Progress, if set, is called after each replica completes, with the
	// number of completed replicas, the total, and the finished key. Calls
	// are serialised; they may arrive in any replica order but done is
	// strictly increasing.
	Progress func(done, total int, key ReplicaKey)
	// WorkerInit, if set, is called once per worker goroutine before its
	// first replica; the returned value is passed to every replica the
	// worker runs (RunWorkers' fn receives it), and the returned cleanup —
	// if non-nil — runs when the worker exits, including on context
	// cancellation or replica error. Scenario execution uses it to give each
	// worker a private pool of reusable simulation worlds.
	WorkerInit func() (value any, cleanup func())
}

// workers resolves the effective worker count for n replicas.
func (o Options) workers(n int) int {
	w := o.Parallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// RunWorkers executes fn once per key across the worker pool and returns
// the results in key order: out[i] is fn(keys[i], local), where local is
// the value Options.WorkerInit produced for the executing worker (nil when
// no WorkerInit is set). If any replica fails, the error for the earliest
// key in the input order is returned (wrapped in *Error) alongside the
// partial results; replicas after a context cancellation are skipped.
func RunWorkers[T any](opt Options, keys []ReplicaKey, fn func(ReplicaKey, any) (T, error)) ([]T, error) {
	n := len(keys)
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	workers := opt.workers(n)

	var next atomic.Int64 // index of the next undispatched replica
	// done counts completed replicas; it is bumped under progressMu so the
	// serialised Progress calls see it strictly increasing.
	var done int
	var progressMu sync.Mutex
	report := func(i int) {
		if opt.Progress == nil {
			return
		}
		progressMu.Lock()
		done++
		opt.Progress(done, n, keys[i])
		progressMu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var local any
			if opt.WorkerInit != nil {
				value, cleanup := opt.WorkerInit()
				local = value
				if cleanup != nil {
					// Deferred so rented worker state is released on every
					// exit path, including cancellation sweeps.
					defer cleanup()
				}
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // mark every remaining replica as cancelled
				}
				out[i], errs[i] = fn(keys[i], local)
				report(i)
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return out, &Error{Key: keys[i], Err: err}
		}
	}
	return out, nil
}

// Keys builds the replica set for a full campaign grid in canonical order:
// all samples of the first point, then the second, and so on. Campaign
// drivers demux RunWorkers' positional results back into per-point slices
// with the same nesting.
func Keys(driver string, points []string, samples int) []ReplicaKey {
	out := make([]ReplicaKey, 0, len(points)*samples)
	for _, p := range points {
		for s := 0; s < samples; s++ {
			out = append(out, ReplicaKey{Driver: driver, Point: p, Sample: s})
		}
	}
	return out
}

// SampleKeys builds the replica set for one grid point.
func SampleKeys(driver, point string, samples int) []ReplicaKey {
	return Keys(driver, []string{point}, samples)
}
