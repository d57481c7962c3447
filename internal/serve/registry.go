package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"wpred/internal/core"
	"wpred/internal/obs"
	"wpred/internal/parallel"
)

// Registry metrics (see "Serving layer" in DESIGN.md). The per-instance
// atomic counters back the tests and the Stats accessor; the obs series
// expose the same traffic on /metrics.
var (
	regFits = obs.GetCounter("wpred_serve_registry_fits_total",
		"Pipelines trained into the model registry (one per distinct key under single-flight).", nil)
	regHits = obs.GetCounter("wpred_serve_registry_hits_total",
		"Registry lookups served by an existing entry.", nil)
	regMisses = obs.GetCounter("wpred_serve_registry_misses_total",
		"Registry lookups that had to train a pipeline.", nil)
	regEvictions = obs.GetCounter("wpred_serve_registry_evictions_total",
		"Entries displaced by the LRU bound.", nil)
	regEntries = obs.GetGauge("wpred_serve_registry_entries",
		"Entries currently resident in the model registry.", nil)
	regRestores = obs.GetCounter("wpred_serve_registry_restores_total",
		"Entries restored from snapshots instead of being trained (warm restarts plus lazy per-key restores).", nil)
	regFitSeconds = obs.GetHistogram("wpred_serve_registry_fit_seconds",
		"Cold-miss pipeline training latency (the tail every waiter on the single-flight shares).",
		obs.DefBuckets, nil)
	regRefits = obs.GetCounter("wpred_serve_registry_refits_total",
		"Background refits triggered by drift invalidation (one per coalesced invalidation burst).", nil)
	regRefitErrs = obs.GetCounter("wpred_serve_registry_refit_errors_total",
		"Background refits that failed; the previous model keeps serving.", nil)
)

// Key identifies one trained pipeline in the model registry: the
// feature-selection strategy × similarity measure × scaling-model family,
// by their display names.
type Key struct {
	Selection string
	Metric    string
	Model     string
}

// withDefaults fills empty fields with the paper's recommended
// configuration, so "{}" and the fully spelled-out default request share
// one registry entry.
func (k Key) withDefaults() Key {
	if k.Selection == "" {
		k.Selection = DefaultSelection
	}
	if k.Metric == "" {
		k.Metric = DefaultMetric
	}
	if k.Model == "" {
		k.Model = DefaultModel
	}
	return k
}

// String renders the key for logs and error messages.
func (k Key) String() string { return k.Selection + " × " + k.Metric + " × " + k.Model }

// regEntry is one registry slot. done closes when the fit finishes;
// waiters then read p/err without further synchronization.
type regEntry struct {
	key  Key
	elem *list.Element
	done chan struct{}
	p    *core.Pipeline
	err  error
}

// Registry is the LRU-bounded, single-flight model cache: Get returns the
// trained pipeline for a key, training it at most once no matter how many
// requests race on a cold key. Eviction displaces the least-recently-used
// entry; a displaced in-flight fit still completes and serves its waiting
// callers, it just isn't retained. Failed fits are not cached, so a
// transient training error does not poison the key forever — but every
// caller waiting on the failed flight observes the same error. A fit or
// restore that panics fails its flight the same way, with a
// *parallel.PanicError.
type Registry struct {
	train func(Key) (*core.Pipeline, error)
	// restore, when set (SetRestore), is consulted on a cold key before
	// train: a hit counts as a restore rather than a fit. The snapshot
	// layer uses it so a key another fleet member already trained — or
	// that this process trained before a restart — is loaded from disk
	// instead of refitted.
	restore func(Key) (*core.Pipeline, bool)
	cap     int

	mu      sync.Mutex
	entries map[Key]*regEntry
	lru     *list.List // front = most recently used; values are *regEntry
	// refitting coalesces concurrent drift invalidations per key: every
	// Refit call while a flight is up joins it instead of training again.
	refitting map[Key]*RefitFlight

	fits, hits, misses, evictions, restores, refits, refitErrs atomic.Uint64
}

// NewRegistry returns a registry holding at most capacity trained
// pipelines (minimum 1), fitting misses through train.
func NewRegistry(capacity int, train func(Key) (*core.Pipeline, error)) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{
		train:     train,
		cap:       capacity,
		entries:   map[Key]*regEntry{},
		lru:       list.New(),
		refitting: map[Key]*RefitFlight{},
	}
}

// RegistryStats is a consistent snapshot of the registry counters.
type RegistryStats struct {
	// Fits counts pipelines trained (single-flight: one per distinct cold
	// key while no eviction intervenes). Keys satisfied from snapshots
	// never count here — the restart round-trip test pins that.
	Fits uint64
	// Hits and Misses partition every Get call.
	Hits, Misses uint64
	// Evictions counts entries displaced by the LRU bound.
	Evictions uint64
	// Restores counts entries satisfied from snapshots (startup warm
	// restores plus lazy per-key restores on cold misses).
	Restores uint64
	// Refits counts background drift-invalidation refits that ran (every
	// coalesced invalidation burst counts once; failed refits included).
	Refits uint64
	// RefitErrors counts refits that failed, leaving the old model serving.
	RefitErrors uint64
	// Entries is the current resident count.
	Entries int
}

// Stats returns the registry's lifetime counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	n := r.lru.Len()
	r.mu.Unlock()
	return RegistryStats{
		Fits:        r.fits.Load(),
		Hits:        r.hits.Load(),
		Misses:      r.misses.Load(),
		Evictions:   r.evictions.Load(),
		Restores:    r.restores.Load(),
		Refits:      r.refits.Load(),
		RefitErrors: r.refitErrs.Load(),
		Entries:     n,
	}
}

// SetRestore installs the snapshot-restore hook consulted on cold misses.
// Call it before the registry starts serving Gets; the hook must be safe
// for concurrent use.
func (r *Registry) SetRestore(f func(Key) (*core.Pipeline, bool)) { r.restore = f }

// Put warm-inserts an already trained pipeline (the startup restore path),
// counting it as a restore. An existing or in-flight entry for the key is
// left untouched — a restore never clobbers newer work — and the insert
// respects the LRU bound like any fit.
func (r *Registry) Put(key Key, p *core.Pipeline) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[key]; ok {
		return
	}
	e := &regEntry{key: key, done: make(chan struct{}), p: p}
	close(e.done)
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.restores.Add(1)
	regRestores.Inc()
	r.evictOverflow()
	regEntries.Set(float64(r.lru.Len()))
}

// Resident returns the successfully trained pipelines currently resident,
// skipping in-flight and failed entries. The shutdown path persists these
// so the next start restores every warm model, not just the ones whose
// on-fit snapshot write succeeded.
func (r *Registry) Resident() map[Key]*core.Pipeline {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[Key]*core.Pipeline, len(r.entries))
	for k, e := range r.entries {
		select {
		case <-e.done:
			if e.err == nil && e.p != nil {
				out[k] = e.p
			}
		default: // fit still in flight
		}
	}
	return out
}

// evictOverflow displaces LRU entries beyond the capacity. Caller holds mu.
func (r *Registry) evictOverflow() {
	for r.lru.Len() > r.cap {
		back := r.lru.Back()
		victim := back.Value.(*regEntry)
		r.lru.Remove(back)
		delete(r.entries, victim.key)
		r.evictions.Add(1)
		regEvictions.Inc()
	}
}

// Get returns the trained pipeline for key, fitting it if absent. Blocks
// while another goroutine fits the same key and shares that flight's
// result. Keys must already be validated (withDefaults applied).
func (r *Registry) Get(key Key) (*core.Pipeline, error) {
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.lru.MoveToFront(e.elem)
		r.hits.Add(1)
		regHits.Inc()
		r.mu.Unlock()
		<-e.done
		return e.p, e.err
	}
	e := &regEntry{key: key, done: make(chan struct{})}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.misses.Add(1)
	regMisses.Inc()
	r.evictOverflow()
	regEntries.Set(float64(r.lru.Len()))
	r.mu.Unlock()

	e.p, e.err = r.resolve(key)
	close(e.done)
	if e.err != nil {
		r.mu.Lock()
		// Drop the failed entry unless eviction already removed it (or a
		// successor replaced it after an eviction).
		if cur, ok := r.entries[key]; ok && cur == e {
			r.lru.Remove(e.elem)
			delete(r.entries, key)
		}
		regEntries.Set(float64(r.lru.Len()))
		r.mu.Unlock()
	}
	return e.p, e.err
}

// resolve produces a cold key's pipeline for its flight. Snapshot restore
// comes first (when enabled): a key another fleet member already trained —
// or this process trained before a restart — loads from disk instead of
// refitting. Waiters on the flight can't tell the difference; only the
// fit/restore accounting does. A panic in either hook becomes the flight's
// *parallel.PanicError, so the flight still resolves and its waiters fail
// instead of blocking forever.
func (r *Registry) resolve(key Key) (p *core.Pipeline, err error) {
	defer parallel.Recover(&err)
	if r.restore != nil {
		if p, ok := r.restore(key); ok {
			r.restores.Add(1)
			regRestores.Inc()
			return p, nil
		}
	}
	r.fits.Add(1)
	regFits.Inc()
	return r.fit(key)
}

// fit trains key, timing it into the fit-latency histogram. A panicking
// train hook returns a *parallel.PanicError.
func (r *Registry) fit(key Key) (p *core.Pipeline, err error) {
	defer parallel.Recover(&err)
	t0 := time.Now()
	defer func() { regFitSeconds.Observe(time.Since(t0).Seconds()) }()
	return r.train(key)
}

// RefitFlight is one in-flight background refit. Every invalidation that
// coalesced onto the flight shares the same completion signal and error.
type RefitFlight struct {
	done chan struct{}
	err  error
}

// Wait blocks until the refit completes and returns its error (nil when
// the new model is serving).
func (f *RefitFlight) Wait() error {
	<-f.done
	return f.err
}

// Refit retrains key in the background — the drift-invalidation path. It
// is single-flight twice over: concurrent Refit calls for the same key
// coalesce onto one flight, and the flight first waits out any in-flight
// Get fit or lazy snapshot restore for the key before training, so an
// invalidation landing mid-restore can never race a second fit of the
// same key. Training bypasses the snapshot-restore hook — a refit exists
// precisely because the persisted model is suspect — and the old entry
// keeps serving until the new model is ready (and indefinitely when the
// refit fails), so there is no cold-start cliff. The returned flight
// resolves when the swap (or failure) has happened.
func (r *Registry) Refit(key Key) *RefitFlight {
	r.mu.Lock()
	if f, ok := r.refitting[key]; ok {
		r.mu.Unlock()
		return f
	}
	f := &RefitFlight{done: make(chan struct{})}
	r.refitting[key] = f
	cur := r.entries[key]
	r.mu.Unlock()

	go func() {
		if cur != nil {
			<-cur.done // never train concurrently with the key's own flight
		}
		r.refits.Add(1)
		regRefits.Inc()
		p, err := r.fit(key)

		r.mu.Lock()
		delete(r.refitting, key)
		if err != nil {
			r.refitErrs.Add(1)
			regRefitErrs.Inc()
		} else {
			// Swap in a fresh, already-done entry. The old entry is never
			// mutated: Get callers that already hold it finish against the
			// stale-but-consistent model.
			e := &regEntry{key: key, done: make(chan struct{}), p: p}
			close(e.done)
			if old, ok := r.entries[key]; ok {
				e.elem = old.elem
				e.elem.Value = e
				r.entries[key] = e
				r.lru.MoveToFront(e.elem)
			} else {
				e.elem = r.lru.PushFront(e)
				r.entries[key] = e
				r.evictOverflow()
			}
			regEntries.Set(float64(r.lru.Len()))
		}
		r.mu.Unlock()
		f.err = err
		close(f.done)
	}()
	return f
}
