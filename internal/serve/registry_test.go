package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wpred/internal/core"
	"wpred/internal/parallel"
)

// fakeTrainer fits instantly-recognizable pipelines: it records which key
// each returned pipeline was trained for, so Get results can be checked
// for cross-key mixups, and counts fits per key.
type fakeTrainer struct {
	mu      sync.Mutex
	perKey  map[Key]int
	byPipe  map[*core.Pipeline]Key
	delay   time.Duration
	failKey Key
	failLim int32 // how many times failKey fails before succeeding
	fails   atomic.Int32
}

func newFakeTrainer(delay time.Duration) *fakeTrainer {
	return &fakeTrainer{perKey: map[Key]int{}, byPipe: map[*core.Pipeline]Key{}, delay: delay}
}

func (f *fakeTrainer) train(k Key) (*core.Pipeline, error) {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if k == f.failKey && f.fails.Add(1) <= f.failLim {
		return nil, errors.New("transient fit failure")
	}
	p := new(core.Pipeline)
	f.mu.Lock()
	f.perKey[k]++
	f.byPipe[p] = k
	f.mu.Unlock()
	return p, nil
}

func (f *fakeTrainer) keyOf(p *core.Pipeline) (Key, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k, ok := f.byPipe[p]
	return k, ok
}

func testKey(i int) Key {
	return Key{Selection: fmt.Sprintf("sel-%d", i), Metric: "m", Model: "mod"}
}

// TestRegistrySingleFlightUnderRace is the registry's concurrency
// contract, meant to run under -race: 64 goroutines hammer 8 distinct
// keys on a registry large enough to never evict, and the fit counter
// must equal the number of distinct keys — every concurrent miss on a
// cold key deduplicates into exactly one fit, and every Get returns the
// pipeline fitted for its own key.
func TestRegistrySingleFlightUnderRace(t *testing.T) {
	const (
		keys       = 8
		goroutines = 64
		iters      = 50
	)
	tr := newFakeTrainer(500 * time.Microsecond)
	r := NewRegistry(keys, tr.train)

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := testKey((g + i) % keys)
				p, err := r.Get(k)
				if err != nil {
					errs[g] = err
					return
				}
				if got, ok := tr.keyOf(p); !ok || got != k {
					errs[g] = fmt.Errorf("Get(%v) returned pipeline trained for %v", k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := r.Stats()
	if st.Fits != keys {
		t.Errorf("fits = %d, want exactly %d (one per distinct key under single-flight)", st.Fits, keys)
	}
	if st.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 (capacity covers the key set)", st.Evictions)
	}
	if total := st.Hits + st.Misses; total != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d", total, goroutines*iters)
	}
	if st.Misses != st.Fits {
		t.Errorf("misses = %d, fits = %d; every miss should fit exactly once", st.Misses, st.Fits)
	}
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
}

// TestRegistryEvictionChurnUnderRace mixes hits, misses, and forced
// evictions (16 keys against 4 slots) across 32 goroutines. Exact fit
// counts are nondeterministic under eviction, but the books must still
// balance and no Get may ever observe a wrong or nil pipeline.
func TestRegistryEvictionChurnUnderRace(t *testing.T) {
	const (
		keys       = 16
		capacity   = 4
		goroutines = 32
		iters      = 40
	)
	tr := newFakeTrainer(200 * time.Microsecond)
	r := NewRegistry(capacity, tr.train)

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Skewed access: half the traffic on two hot keys keeps
				// them resident while the cold tail churns the LRU.
				var k Key
				if i%2 == 0 {
					k = testKey(g % 2)
				} else {
					k = testKey((g*7 ^ i*13) % keys)
				}
				p, err := r.Get(k)
				if err != nil {
					errs[g] = err
					return
				}
				if p == nil {
					errs[g] = fmt.Errorf("Get(%v) returned nil pipeline without error", k)
					return
				}
				if got, ok := tr.keyOf(p); !ok || got != k {
					errs[g] = fmt.Errorf("Get(%v) returned pipeline trained for %v", k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	st := r.Stats()
	if total := st.Hits + st.Misses; total != goroutines*iters {
		t.Errorf("hits+misses = %d, want %d", total, goroutines*iters)
	}
	if st.Fits != st.Misses {
		t.Errorf("fits = %d, misses = %d; every miss fits exactly once", st.Fits, st.Misses)
	}
	if st.Fits < keys {
		t.Errorf("fits = %d, want >= %d (every key trained at least once)", st.Fits, keys)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions with 16 keys against 4 slots")
	}
	if st.Entries > capacity {
		t.Errorf("entries = %d exceeds capacity %d", st.Entries, capacity)
	}
}

// TestRegistryFailedFitNotCached asserts the error semantics: callers
// racing on a failing flight all observe the failure, but the error is
// not cached — the next Get retries and can succeed.
func TestRegistryFailedFitNotCached(t *testing.T) {
	tr := newFakeTrainer(time.Millisecond)
	tr.failKey = testKey(0)
	tr.failLim = 1
	r := NewRegistry(4, tr.train)

	const racers = 8
	var wg sync.WaitGroup
	outcomes := make([]error, racers)
	for g := 0; g < racers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, outcomes[g] = r.Get(testKey(0))
		}(g)
	}
	wg.Wait()

	// The first flight fails exactly once; any caller that raced into
	// that flight shares its error, later callers retry and succeed.
	var failed int
	for _, err := range outcomes {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		t.Error("no caller observed the transient failure")
	}

	p, err := r.Get(testKey(0))
	if err != nil || p == nil {
		t.Fatalf("retry after transient failure: %v", err)
	}
	if st := r.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (only the successful fit cached)", st.Entries)
	}
}

// TestRegistryRefitCoalescesAndSwaps pins the background-refit semantics:
// concurrent Refit calls while a flight is up coalesce onto it, the old
// model serves until the flight completes, and the swap installs the
// freshly trained pipeline without counting as a fit.
func TestRegistryRefitCoalescesAndSwaps(t *testing.T) {
	gate := make(chan struct{})
	var trains atomic.Int32
	r := NewRegistry(4, func(k Key) (*core.Pipeline, error) {
		if trains.Add(1) > 1 {
			<-gate // refit trains block until released; the Get fit passes
		}
		return new(core.Pipeline), nil
	})
	k := testKey(0)
	old, err := r.Get(k)
	if err != nil {
		t.Fatal(err)
	}

	f1 := r.Refit(k)
	f2 := r.Refit(k)
	if f1 != f2 {
		t.Error("concurrent Refit calls did not coalesce onto one flight")
	}
	// The swap has not happened: Get still serves the old model.
	if p, _ := r.Get(k); p != old {
		t.Error("Get returned a different pipeline while the refit was in flight")
	}
	close(gate)
	if err := f1.Wait(); err != nil {
		t.Fatal(err)
	}
	p, err := r.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if p == old {
		t.Error("Get still returns the stale pipeline after the refit swapped")
	}
	st := r.Stats()
	if st.Fits != 1 || st.Refits != 1 || st.RefitErrors != 0 {
		t.Errorf("stats = fits %d / refits %d / refit errors %d, want 1 / 1 / 0",
			st.Fits, st.Refits, st.RefitErrors)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1 (swap must replace, not duplicate)", st.Entries)
	}
}

// TestRegistryRefitFailureServesStale asserts the no-cold-start-cliff
// contract: a failed refit leaves the previous model serving indefinitely
// and is visible only in the error counter.
func TestRegistryRefitFailureServesStale(t *testing.T) {
	var trains atomic.Int32
	r := NewRegistry(4, func(k Key) (*core.Pipeline, error) {
		if trains.Add(1) > 1 {
			return nil, errors.New("refit blew up")
		}
		return new(core.Pipeline), nil
	})
	k := testKey(0)
	old, err := r.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Refit(k).Wait(); err == nil {
		t.Fatal("refit flight reported success for a failed train")
	}
	p, err := r.Get(k)
	if err != nil || p != old {
		t.Errorf("Get after failed refit = (%p, %v), want the stale model (%p) with no error", p, err, old)
	}
	st := r.Stats()
	if st.Refits != 1 || st.RefitErrors != 1 {
		t.Errorf("refits = %d, refit errors = %d, want 1 and 1", st.Refits, st.RefitErrors)
	}
}

// TestRegistryRefitDuringRestoreUnderRace is the regression test for the
// warmup/lazy-restore/invalidation race: a drift invalidation landing
// while the key's lazy snapshot restore is still in flight must wait the
// restore out and train exactly once — never a double fit. Eight keys are
// held mid-restore while 64 goroutines hammer Get and Refit on all of
// them; after release, every key has trained exactly once (the refit),
// with zero Get-path fits.
func TestRegistryRefitDuringRestoreUnderRace(t *testing.T) {
	const (
		keys       = 8
		goroutines = 64
	)
	var (
		trainMu sync.Mutex
		trained = map[Key]int{}
	)
	r := NewRegistry(keys, func(k Key) (*core.Pipeline, error) {
		trainMu.Lock()
		trained[k]++
		trainMu.Unlock()
		return new(core.Pipeline), nil
	})
	restoreGate := make(chan struct{})
	var restoresEntered sync.WaitGroup
	restoresEntered.Add(keys)
	r.SetRestore(func(k Key) (*core.Pipeline, bool) {
		restoresEntered.Done()
		<-restoreGate
		return new(core.Pipeline), true
	})

	// Phase 1: one cold Get per key, each now parked inside the restore hook.
	var getters sync.WaitGroup
	getErrs := make([]error, keys)
	for i := 0; i < keys; i++ {
		getters.Add(1)
		go func(i int) {
			defer getters.Done()
			_, getErrs[i] = r.Get(testKey(i))
		}(i)
	}
	restoresEntered.Wait()

	// Phase 2: invalidations land mid-restore from 64 goroutines, mixed
	// with more Gets that pile onto the in-flight entries (those block
	// until release, so they join the getters wait group). Every Refit
	// call must coalesce per key, because no flight can finish before
	// release.
	var stress sync.WaitGroup
	flights := make([]*RefitFlight, goroutines*keys)
	for g := 0; g < goroutines; g++ {
		stress.Add(1)
		go func(g int) {
			defer stress.Done()
			for i := 0; i < keys; i++ {
				k := testKey((g + i) % keys)
				flights[g*keys+i] = r.Refit(k)
				if g%2 == 0 {
					getters.Add(1)
					go func(k Key) {
						defer getters.Done()
						_, _ = r.Get(k)
					}(k)
				}
			}
		}(g)
	}
	stress.Wait()
	close(restoreGate)
	getters.Wait()
	for i, err := range getErrs {
		if err != nil {
			t.Fatalf("Get(%v): %v", testKey(i), err)
		}
	}
	for _, f := range flights {
		if err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	trainMu.Lock()
	defer trainMu.Unlock()
	for i := 0; i < keys; i++ {
		if n := trained[testKey(i)]; n != 1 {
			t.Errorf("key %v trained %d times, want exactly 1 (the coalesced refit)", testKey(i), n)
		}
	}
	st := r.Stats()
	if st.Fits != 0 {
		t.Errorf("fits = %d, want 0 (every cold Get was satisfied by the restore)", st.Fits)
	}
	if st.Restores != keys {
		t.Errorf("restores = %d, want %d", st.Restores, keys)
	}
	if st.Refits != keys {
		t.Errorf("refits = %d, want %d (one coalesced flight per key)", st.Refits, keys)
	}
	if st.Entries != keys {
		t.Errorf("entries = %d, want %d", st.Entries, keys)
	}
}

// TestRegistryPanickingRefitResolves injects a panic into a background
// refit: its flight resolves with a *parallel.PanicError, the stale model
// keeps serving, and a later refit of the key trains again.
func TestRegistryPanickingRefitResolves(t *testing.T) {
	var trains atomic.Int32
	r := NewRegistry(4, func(k Key) (*core.Pipeline, error) {
		if trains.Add(1) == 2 {
			panic("injected refit failure")
		}
		return new(core.Pipeline), nil
	})
	k := testKey(0)
	old, err := r.Get(k)
	if err != nil {
		t.Fatal(err)
	}
	var pe *parallel.PanicError
	before := flightPanics.Recovered()
	if err := r.Refit(k).Wait(); !errors.As(err, &pe) {
		t.Fatalf("panicking refit flight = %v, want a *parallel.PanicError", err)
	}
	if got := flightPanics.Recovered() - before; got != 1 {
		t.Errorf("registry_flight counted %d recovered panics, want 1", got)
	}
	if p, err := r.Get(k); err != nil || p != old {
		t.Errorf("Get after the panicking refit = (%p, %v), want the stale model", p, err)
	}
	if err := r.Refit(k).Wait(); err != nil {
		t.Fatalf("refit after the panicking one: %v", err)
	}
	if st := r.Stats(); st.Refits != 2 || st.RefitErrors != 1 {
		t.Errorf("refits = %d, refit errors = %d, want 2 and 1", st.Refits, st.RefitErrors)
	}
}
