package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"weak"

	"wpred/internal/core"
	"wpred/internal/obs"
	"wpred/internal/snapshot"
	"wpred/internal/telemetry"
)

// Snapshot metrics (see "Durability & fleet" in DESIGN.md).
var (
	snapWrites = obs.GetCounter("wpred_serve_snapshot_writes_total",
		"Snapshots written to the snapshot directory (on fit and on drain).", nil)
	snapWriteErrs = obs.GetCounter("wpred_serve_snapshot_write_errors_total",
		"Snapshot writes that failed; serving continues, durability degrades.", nil)
	snapRestoreSkips = obs.GetCounter("wpred_serve_snapshot_skipped_total",
		"Snapshots on disk that were not restored: corrupt, stale, or trained under a different configuration.", nil)
	snapLastWrite = obs.GetGauge("wpred_serve_snapshot_last_write_unix",
		"Unix time of the last successful snapshot write (0 before the first).", nil)
)

// snapshots is the server's durability state: the on-disk store, the
// reference suite fits train on and restores are validated against and
// restored onto, the suite each live pipeline learned from, and the
// counters the health payloads expose.
type snapshots struct {
	store *snapshot.Store

	// suiteMu guards suite, which SetRefs swaps at runtime: snapshots
	// trained against a superseded suite must fail the compatibility check
	// from the moment the swap happens.
	suiteMu sync.RWMutex
	suite   *refSuite

	// learnedFrom maps each pipeline this server trained or restored to
	// the suite it learned from, so a snapshot carries that suite's hash
	// even after SetRefs has replaced it. Keys are weak: an entry goes
	// when its pipeline has left the registry and been collected.
	learnedMu   sync.Mutex
	learnedFrom map[weak.Pointer[core.Pipeline]]*refSuite

	restorePending atomic.Bool
	restored       atomic.Uint64
	written        atomic.Uint64
	writeErrs      atomic.Uint64
	skipped        atomic.Uint64
	lastWriteUnix  atomic.Int64
}

// refSuite is one reference suite as snapshots see it: its fingerprint
// and, sanitized on the first restore that needs them, the references
// every pipeline restored against this suite shares. err records a failure
// to fingerprint the suite; saves and restores are disabled (never
// silently mismatched) while set.
type refSuite struct {
	refs []*telemetry.Experiment
	hash string
	err  error

	once      sync.Once
	sanitized *core.References
}

// setRefs re-fingerprints the reference suite after a SetRefs swap. A suite
// with the same fingerprint, which holds the same experiments, keeps the
// record it replaces: its slice, which fits train on, and the references
// already sanitized for it.
func (sn *snapshots) setRefs(refs []*telemetry.Experiment) {
	h, err := snapshot.SuiteHash(refs)
	sn.suiteMu.Lock()
	defer sn.suiteMu.Unlock()
	if cur := sn.suite; cur != nil && cur.err == nil && err == nil && cur.hash == h {
		return
	}
	sn.suite = &refSuite{refs: refs, hash: h, err: err}
}

// current returns the reference suite restores are checked against.
func (sn *snapshots) current() *refSuite {
	sn.suiteMu.RLock()
	defer sn.suiteMu.RUnlock()
	return sn.suite
}

// usable returns the current reference suite when durable snapshots are
// configured and the suite could be fingerprinted, else nil.
func (sn *snapshots) usable() *refSuite {
	if sn == nil || sn.store == nil {
		return nil
	}
	if rs := sn.current(); rs.err == nil {
		return rs
	}
	return nil
}

// enabled reports whether durable snapshots are configured and usable.
func (sn *snapshots) enabled() bool { return sn.usable() != nil }

// references returns rs sanitized under policy, sanitizing it on the
// first call.
func (rs *refSuite) references(policy telemetry.SanitizePolicy) *core.References {
	rs.once.Do(func() { rs.sanitized = core.SanitizeReferences(rs.refs, policy) })
	return rs.sanitized
}

// learned records that p was trained on or restored onto rs.
func (sn *snapshots) learned(p *core.Pipeline, rs *refSuite) {
	wp := weak.Make(p)
	sn.learnedMu.Lock()
	sn.learnedFrom[wp] = rs
	sn.learnedMu.Unlock()
	runtime.AddCleanup(p, sn.forget, wp)
}

// forget drops a collected pipeline's entry.
func (sn *snapshots) forget(wp weak.Pointer[core.Pipeline]) {
	sn.learnedMu.Lock()
	delete(sn.learnedFrom, wp)
	sn.learnedMu.Unlock()
}

// learnedSuite returns the suite p was trained on or restored onto, or nil
// for a pipeline this server did not record.
func (sn *snapshots) learnedSuite(p *core.Pipeline) *refSuite {
	sn.learnedMu.Lock()
	defer sn.learnedMu.Unlock()
	return sn.learnedFrom[weak.Make(p)]
}

// newSnapshots builds the durability state for a server, or nil when no
// snapshot directory is configured.
func newSnapshots(cfg Config) *snapshots {
	if cfg.SnapshotDir == "" {
		return nil
	}
	sn := &snapshots{
		store:       snapshot.NewStore(cfg.SnapshotDir),
		learnedFrom: map[weak.Pointer[core.Pipeline]]*refSuite{},
	}
	sn.setRefs(cfg.Refs)
	sn.restorePending.Store(true)
	return sn
}

// snapshotFor wraps a pipeline learned from rs in its on-disk form,
// stamping the configuration identity restores are checked against.
func (s *Server) snapshotFor(k Key, p *core.Pipeline, rs *refSuite) (*snapshot.Snapshot, error) {
	st, err := p.State()
	if err != nil {
		return nil, err
	}
	return &snapshot.Snapshot{
		Selection:   k.Selection,
		Metric:      k.Metric,
		Model:       k.Model,
		Seed:        s.cfg.Seed,
		TopK:        s.cfg.TopK,
		Subsamples:  s.cfg.Subsamples,
		Sanitize:    s.cfg.Sanitize,
		RefsHash:    rs.hash,
		CreatedUnix: time.Now().Unix(),
		State:       st,
	}, nil
}

// saveSnapshot persists one registry entry learned from rs. Failures
// degrade durability, not availability: they are counted and surfaced on
// /healthz but never fail the fit that produced the model.
func (s *Server) saveSnapshot(k Key, p *core.Pipeline, rs *refSuite) error {
	snap, err := s.snapshotFor(k, p, rs)
	if err == nil {
		err = s.snaps.store.Save(snap)
	}
	if err != nil {
		s.snaps.writeErrs.Add(1)
		snapWriteErrs.Inc()
		return fmt.Errorf("serve: snapshot %s: %w", k, err)
	}
	s.snaps.written.Add(1)
	snapWrites.Inc()
	s.snaps.lastWriteUnix.Store(snap.CreatedUnix)
	snapLastWrite.Set(float64(snap.CreatedUnix))
	return nil
}

// errIncompatible marks a snapshot trained under another configuration or
// reference suite than this server's.
var errIncompatible = errors.New("serve: snapshot trained under another configuration or reference suite")

// restorePipeline reconstructs a snapshot's pipeline without refitting,
// onto the server's own reference suite, sanitized once per suite. It
// fails, and the key refits, unless the snapshot was trained under this
// server's exact configuration — same seed, pipeline knobs, sanitize
// policy, and reference suite — names algorithms the live catalog knows,
// and records exactly the drops the server's suite produces
// (core.ErrCorrupt otherwise). Anything else would serve predictions that
// diverge from what this server would train.
func (s *Server) restorePipeline(snap *snapshot.Snapshot) (Key, *core.Pipeline, error) {
	k := Key{Selection: snap.Selection, Metric: snap.Metric, Model: snap.Model}
	rs := s.snaps.current()
	if rs.err != nil || snap.Seed != s.cfg.Seed || snap.TopK != s.cfg.TopK ||
		snap.Subsamples != s.cfg.Subsamples || snap.Sanitize != s.cfg.Sanitize ||
		snap.RefsHash != rs.hash {
		return k, nil, errIncompatible
	}
	cfg, err := s.pipelineConfig(k)
	if err != nil {
		return k, nil, err
	}
	p, err := core.Restore(cfg, rs.references(s.cfg.Sanitize), snap.State)
	if err != nil {
		return k, nil, err
	}
	s.snaps.learned(p, rs)
	return k, p, nil
}

// tryRestore is the registry's lazy restore hook: on a cold miss it loads
// the key's snapshot if a compatible one exists on disk — covering both a
// restarted daemon's own models and, with a shared snapshot directory,
// models a fleet sibling already trained. A snapshot that exists but
// cannot be read or restored is counted as skipped.
func (s *Server) tryRestore(k Key) (*core.Pipeline, bool) {
	if !s.snaps.enabled() {
		return nil, false
	}
	snap, err := s.snaps.store.Load(k.Selection, k.Metric, k.Model)
	if err == nil {
		var p *core.Pipeline
		if _, p, err = s.restorePipeline(snap); err == nil {
			return p, true
		}
	}
	if !errors.Is(err, snapshot.ErrNotFound) {
		s.snaps.skipped.Add(1)
		snapRestoreSkips.Inc()
	}
	return nil, false
}

// RestoreSnapshots warm-starts the registry from the snapshot directory:
// every compatible snapshot becomes a resident model with zero refits.
// Corrupt, stale, older-format, or configuration-mismatched snapshots are
// skipped (and counted), never served. Call it after New and before
// Warmup so /readyz stays 503 until the restore has completed; the error
// return is reserved for a durability setup so broken that snapshots
// cannot work at all.
func (s *Server) RestoreSnapshots() (restored, skipped int, err error) {
	if s.snaps == nil {
		return 0, 0, nil
	}
	defer s.snaps.restorePending.Store(false)
	if err := s.snaps.current().err; err != nil {
		return 0, 0, fmt.Errorf("serve: snapshots disabled: %w", err)
	}
	snaps, errs := s.snaps.store.LoadAll()
	skipped += len(errs)
	for _, snap := range snaps {
		k, p, rerr := s.restorePipeline(snap)
		if rerr != nil {
			skipped++
			continue
		}
		s.registry.Put(k.withDefaults(), p)
		restored++
	}
	s.snaps.restored.Add(uint64(restored))
	s.snaps.skipped.Add(uint64(skipped))
	for i := 0; i < skipped; i++ {
		snapRestoreSkips.Inc()
	}
	s.restoreDriftState()
	return restored, skipped, nil
}

// persistResident snapshots every successfully trained resident model
// learned from the current suite — the SIGTERM drain path, which also
// repairs any on-fit snapshot write that failed transiently. A model
// learned from a suite SetRefs has since replaced keeps serving until its
// key is invalidated, but a restart on the current suite would refit it,
// so it is not written. It returns the first error (all writes are still
// attempted).
func (s *Server) persistResident() error {
	cur := s.snaps.usable()
	if cur == nil {
		return nil
	}
	var first error
	for k, p := range s.registry.Resident() {
		rs := s.snaps.learnedSuite(p)
		if rs == nil || rs.hash != cur.hash {
			continue
		}
		if err := s.saveSnapshot(k, p, rs); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// snapshotStatusJSON is the snapshot section of the health payloads: it
// lets the router and operators tell a cold instance from a warm one and
// spot degrading durability (write errors) before a restart needs it.
type snapshotStatusJSON struct {
	Enabled          bool   `json:"enabled"`
	RestorePending   bool   `json:"restore_pending"`
	Restored         uint64 `json:"restored"`
	Written          uint64 `json:"written"`
	WriteErrors      uint64 `json:"write_errors"`
	Skipped          uint64 `json:"skipped"`
	LastSnapshotUnix int64  `json:"last_snapshot_unix"`
}

// snapshotStatus renders the health-payload section (nil when snapshots
// are not configured, which omits the section entirely).
func (s *Server) snapshotStatus() *snapshotStatusJSON {
	if s.snaps == nil {
		return nil
	}
	return &snapshotStatusJSON{
		Enabled:          s.snaps.enabled(),
		RestorePending:   s.snaps.restorePending.Load(),
		Restored:         s.snaps.restored.Load(),
		Written:          s.snaps.written.Load(),
		WriteErrors:      s.snaps.writeErrs.Load(),
		Skipped:          s.snaps.skipped.Load(),
		LastSnapshotUnix: s.snaps.lastWriteUnix.Load(),
	}
}
