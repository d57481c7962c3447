package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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

// snapshots is the server's durability state: the on-disk store and the
// counters the health payloads expose.
type snapshots struct {
	store *snapshot.Store

	restorePending atomic.Bool
	restored       atomic.Uint64
	written        atomic.Uint64
	writeErrs      atomic.Uint64
	skipped        atomic.Uint64
	lastWriteUnix  atomic.Int64
}

// refSuite is one reference suite as the server holds it: the raw
// experiments, sanitized on first use under the server's policy into the
// references every pipeline built on this suite shares (fits, drift refits
// and restores alike), and, with a snapshot directory set, the suite's
// fingerprint. err records a failure to fingerprint the suite; saves and
// restores are disabled (never silently mismatched) while set.
type refSuite struct {
	refs   []*telemetry.Experiment
	policy telemetry.SanitizePolicy
	hash   string
	err    error

	once      sync.Once
	sanitized *core.References
}

// newRefSuite records refs and the policy they are sanitized under,
// fingerprinting them only when hashed (a snapshot directory is set):
// without one nothing reads the hash.
func newRefSuite(refs []*telemetry.Experiment, policy telemetry.SanitizePolicy, hashed bool) *refSuite {
	rs := &refSuite{refs: refs, policy: policy}
	if hashed {
		rs.hash, rs.err = snapshot.SuiteHash(refs)
	}
	return rs
}

// references returns rs sanitized under its policy, sanitizing it on the
// first call.
func (rs *refSuite) references() *core.References {
	rs.once.Do(func() { rs.sanitized = core.SanitizeReferences(rs.refs, rs.policy) })
	return rs.sanitized
}

// durableSuite returns the server's reference suite when durable
// snapshots are configured and the suite could be fingerprinted, else nil.
func (s *Server) durableSuite() *refSuite {
	if s.snaps == nil || s.suite.err != nil {
		return nil
	}
	return s.suite
}

// newSnapshots builds the durability state for a server, or nil when no
// snapshot directory is configured.
func newSnapshots(cfg Config) *snapshots {
	if cfg.SnapshotDir == "" {
		return nil
	}
	sn := &snapshots{store: snapshot.NewStore(cfg.SnapshotDir)}
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
// onto the references every pipeline of the server's suite shares.
// It fails, and the key refits, unless the snapshot was trained under this
// server's exact configuration — same seed, pipeline knobs, sanitize
// policy, and reference suite — names algorithms the live catalog knows,
// and records exactly the drops the server's suite produces
// (core.ErrCorrupt otherwise). Anything else would serve predictions that
// diverge from what this server would train.
func (s *Server) restorePipeline(snap *snapshot.Snapshot) (Key, *core.Pipeline, error) {
	k := Key{Selection: snap.Selection, Metric: snap.Metric, Model: snap.Model}
	rs := s.suite
	if rs.err != nil || snap.Seed != s.cfg.Seed || snap.TopK != s.cfg.TopK ||
		snap.Subsamples != s.cfg.Subsamples || snap.Sanitize != s.cfg.Sanitize ||
		snap.RefsHash != rs.hash {
		return k, nil, errIncompatible
	}
	cfg, err := s.pipelineConfig(k)
	if err != nil {
		return k, nil, err
	}
	p, err := core.Restore(cfg, rs.references(), snap.State)
	return k, p, err
}

// tryRestore is the registry's lazy restore hook: on a cold miss it loads
// the key's snapshot if a compatible one exists on disk — covering both a
// restarted daemon's own models and, with a shared snapshot directory,
// models a fleet sibling already trained. A snapshot that exists but
// cannot be read or restored is counted as skipped.
func (s *Server) tryRestore(k Key) (*core.Pipeline, bool) {
	if s.durableSuite() == nil {
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
	if err := s.suite.err; err != nil {
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

// persistResident snapshots every successfully trained resident model —
// the SIGTERM drain path, which also repairs any on-fit snapshot write
// that failed transiently. It returns the first error (all writes are
// still attempted).
func (s *Server) persistResident() error {
	rs := s.durableSuite()
	if rs == nil {
		return nil
	}
	var first error
	for k, p := range s.registry.Resident() {
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
		Enabled:          s.durableSuite() != nil,
		RestorePending:   s.snaps.restorePending.Load(),
		Restored:         s.snaps.restored.Load(),
		Written:          s.snaps.written.Load(),
		WriteErrors:      s.snaps.writeErrs.Load(),
		Skipped:          s.snaps.skipped.Load(),
		LastSnapshotUnix: s.snaps.lastWriteUnix.Load(),
	}
}
