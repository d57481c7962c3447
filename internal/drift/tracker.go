package drift

import (
	"sort"
	"sync"
)

// Tracker multiplexes monitors across serving keys. It is the concurrency
// boundary of the drift layer: the serving tier's /v1/observe handler and
// its snapshot loop call it from many goroutines, while the per-key
// Monitors themselves stay single-threaded underneath the tracker lock.
type Tracker struct {
	cfg Config

	mu       sync.Mutex
	monitors map[string]*Monitor
}

// NewTracker returns a tracker whose monitors share cfg; each key's
// monitor derives its own forecast stream from cfg.Seed and the key-local
// observation count, so per-key results are independent of interleaving.
// The tracker keeps cfg as given: NewMonitor applies the defaults, once,
// because they are not idempotent (a negative Season disables seasonality
// by becoming 0, which a second pass would turn into the default 24).
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg, monitors: map[string]*Monitor{}}
}

// Observe routes one observation to key's monitor (creating it on first
// sight) and reports a confirmed regime change for that key.
func (t *Tracker) Observe(key string, o Observation) (Event, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.monitors[key]
	if m == nil {
		m = NewMonitor(t.cfg)
		t.monitors[key] = m
	}
	return m.Observe(o)
}

// Forecast returns key's near-future forecast, or nil when the key has
// never been observed.
func (t *Tracker) Forecast(key string, h int) *Forecast {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.monitors[key]
	if m == nil {
		return nil
	}
	return m.Forecast(h)
}

// Keys returns the tracked keys, sorted.
func (t *Tracker) Keys() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.monitors))
	for k := range t.monitors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Stats aggregates observation and event counts across all keys.
func (t *Tracker) Stats() (keys, observations, events, suppressed int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.monitors {
		observations += m.Count()
		events += m.Events()
		suppressed += m.Suppressed()
	}
	return len(t.monitors), observations, events, suppressed
}

// TrackerState is the serializable form of a tracker: per-key monitor
// states in sorted key order, so the encoding is deterministic.
type TrackerState struct {
	Keys   []string `json:"keys"`
	States []State  `json:"states"`
}

// State captures every monitor for persistence.
func (t *Tracker) State() TrackerState {
	keys := t.Keys()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TrackerState{Keys: keys, States: make([]State, len(keys))}
	for i, k := range keys {
		st.States[i] = t.monitors[k].State()
	}
	return st
}

// RestoreTracker rebuilds a tracker from a persisted state. Entries whose
// key and state counts disagree are ignored rather than guessed at.
func RestoreTracker(cfg Config, st TrackerState) *Tracker {
	t := NewTracker(cfg)
	t.LoadState(st)
	return t
}

// LoadState merges a persisted state into an existing tracker, returning
// the number of monitors restored. Keys already being tracked keep their
// live monitor — a restore never clobbers fresher observations — and a
// state whose key and monitor counts disagree is ignored entirely.
func (t *Tracker) LoadState(st TrackerState) int {
	if len(st.Keys) != len(st.States) {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	restored := 0
	for i, k := range st.Keys {
		if _, ok := t.monitors[k]; ok {
			continue
		}
		t.monitors[k] = Restore(t.cfg, st.States[i])
		restored++
	}
	return restored
}
