// Package parallel is the bounded, deterministic fan-out primitive used by
// every embarrassingly-parallel hot path in this repository: pairwise
// distance-matrix construction, wrapper feature-selection retrain loops,
// k-fold evaluation, and the suite-level experiment fan-out.
//
// Determinism is the design constraint. Map and ForEach collect results by
// index, so the output of a parallel run is bit-identical to the serial
// one regardless of scheduling — the robustness chaos tests assert
// bit-for-bit reproducibility, and EXPERIMENTS.md numbers must not depend
// on the worker count. Errors are deterministic too: the error returned is
// always the one produced by the lowest failing index, exactly the error a
// serial left-to-right loop would have surfaced.
//
// The worker bound is a process-wide setting (SetMaxWorkers, wired to the
// -j flag of cmd/experiments). The default is GOMAXPROCS; a bound of 1
// runs every call inline with no goroutines, preserving the pre-parallel
// serial behaviour exactly. Calls may nest (a suite-level fan-out whose
// runners fan out over distance pairs); each call bounds only its own
// workers, which keeps the implementation simple and is harmless for the
// CPU-bound workloads here.
//
// A panic inside fn never crosses a worker goroutine: it is recovered and
// reported as that index's *PanicError, under the same lowest-index rule
// as any other error, so one bad task cannot kill the process.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"wpred/internal/obs"
)

// Pool metrics (see "Observability" in DESIGN.md). Counters and gauges are
// single atomic operations, so the per-task overhead is negligible next to
// the model fits and distance evaluations the pool runs.
var (
	tasksStarted = obs.GetCounter("wpred_parallel_tasks_started_total",
		"Tasks handed to a worker (or run inline when the bound is 1).", nil)
	tasksCompleted = obs.GetCounter("wpred_parallel_tasks_completed_total",
		"Tasks finished, successful or failed.", nil)
	workersBusy = obs.GetGauge("wpred_parallel_workers_busy",
		"Workers currently executing a task; utilization = busy/max.", nil)
	workersMax = obs.GetGauge("wpred_parallel_workers_max",
		"Process-wide worker bound (SetMaxWorkers, default GOMAXPROCS).", nil)
	queueWait = obs.GetHistogram("wpred_parallel_queue_wait_seconds",
		"Time a task waited between fan-out start and pickup.", obs.DefBuckets, nil)
)

func init() { workersMax.Set(float64(MaxWorkers())) }

// maxWorkers is the process-wide worker bound; 0 means GOMAXPROCS.
var maxWorkers atomic.Int64

// SetMaxWorkers bounds the concurrency of every subsequent Map/ForEach
// call. n <= 0 restores the default (GOMAXPROCS at call time). It returns
// the previous setting so tests can restore it.
func SetMaxWorkers(n int) int {
	prev := int(maxWorkers.Load())
	if n < 0 {
		n = 0
	}
	maxWorkers.Store(int64(n))
	workersMax.Set(float64(MaxWorkers()))
	return prev
}

// MaxWorkers reports the current worker bound.
func MaxWorkers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic recovered at a goroutine boundary (a PanicSite):
// a pool task, a model-registry flight, a pipeline's scaling-memo fill, or
// a served prediction item. It carries the panic value and the stack of
// the panicking goroutine, so the failure surfaces as an ordinary error on
// the path that asked for the work.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("recovered panic: %v", e.Value) }

// PanicSite is one goroutine boundary that recovers panics. Every panic it
// recovers counts in wpred_panics_recovered_total{site}, so a fault that
// ends as an ordinary error on one request still shows on /metrics.
type PanicSite struct{ recovered *obs.Counter }

// NewPanicSite returns the boundary named site ("pool",
// "registry_flight", "scale_memo_fill", "served_item").
func NewPanicSite(site string) PanicSite {
	return PanicSite{obs.GetCounter("wpred_panics_recovered_total",
		"Panics recovered at a goroutine boundary, by site.", obs.Labels{"site": site})}
}

// Error counts one value returned by recover and wraps it as a
// *PanicError with the current stack. Call it from the deferred function
// that recovered, so the stack still shows the panic site.
func (s PanicSite) Error(v any) *PanicError {
	s.recovered.Inc()
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Recover turns a panic in the calling function into a counted
// *PanicError stored in *err. Use it as the deferred call itself:
//
//	defer site.Recover(&err)
func (s PanicSite) Recover(err *error) {
	if v := recover(); v != nil {
		*err = s.Error(v)
	}
}

// Recovered reports how many panics the site has recovered in this
// process.
func (s PanicSite) Recovered() uint64 { return s.recovered.Value() }

// poolPanics counts the panics recovered in pool tasks.
var poolPanics = NewPanicSite("pool")

// call runs one task with its panic converted into the task's error.
func call[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer poolPanics.Recover(&err)
	return fn(i)
}

// Map invokes fn(i) for every i in [0, n) on up to MaxWorkers goroutines
// and returns the results ordered by index. The slice is identical to what
// a serial loop would produce. On error, Map returns the error of the
// lowest failing index (the serial first error); indexes above a failing
// one may be skipped, and fn may still be invoked for indexes between a
// failure and earlier pending work, so fn must not rely on never running
// after a sibling fails. fn must be safe for concurrent invocation on
// distinct indexes. A panic in fn(i) becomes index i's *PanicError.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := MaxWorkers()
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	t0 := time.Now()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			tasksStarted.Inc()
			queueWait.Observe(time.Since(t0).Seconds())
			workersBusy.Add(1)
			v, err := call(fn, i)
			workersBusy.Add(-1)
			tasksCompleted.Inc()
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	// firstErr tracks the lowest failing index; n means "none". Workers
	// short-circuit indexes above it but still run lower ones, so the
	// reported error matches the serial first-error exactly.
	var firstErr atomic.Int64
	firstErr.Store(int64(n))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				if i > firstErr.Load() {
					continue // short-circuit past the lowest known failure
				}
				tasksStarted.Inc()
				queueWait.Observe(time.Since(t0).Seconds())
				workersBusy.Add(1)
				v, err := call(fn, int(i))
				workersBusy.Add(-1)
				tasksCompleted.Inc()
				if err != nil {
					errs[i] = err
					for {
						cur := firstErr.Load()
						if i >= cur || firstErr.CompareAndSwap(cur, i) {
							break
						}
					}
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if fe := firstErr.Load(); fe < int64(n) {
		return nil, errs[fe]
	}
	return out, nil
}

// ForEach invokes fn(i) for every i in [0, n) with the same scheduling,
// bounding, and first-error semantics as Map. Callers typically write
// results into caller-owned slices by index, which preserves determinism.
func ForEach(n int, fn func(i int) error) error {
	_, err := Map(n, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}

// ForEachBlock partitions [0, n) into consecutive blocks of the given
// fixed size (the last block may be short) and invokes fn(lo, hi) for each
// on the pool, with Map's ordering and first-error semantics. Block
// boundaries depend only on n and block — never on the worker count — so a
// caller that accumulates per-block partial results and reduces them in
// block order gets bit-identical output at every parallelism level. This
// is the fan-out primitive of the intra-model parallel fit paths (tree
// split search, MLP batch passes), whose per-item work is too small to
// schedule individually.
func ForEachBlock(n, block int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if block <= 0 {
		block = 1
	}
	blocks := (n + block - 1) / block
	return ForEach(blocks, func(b int) error {
		lo := b * block
		hi := lo + block
		if hi > n {
			hi = n
		}
		return fn(lo, hi)
	})
}
