// Package snapshot serializes what a fitted prediction pipeline learned to
// a versioned, checksummed on-disk format so a restarted wpredd serves
// byte-identical predictions without refitting anything (see "Durability
// & fleet" in DESIGN.md).
//
// A snapshot captures one model-registry entry: the registry key
// (selection × metric × model), the training configuration identity (seed,
// TopK, subsamples, sanitize policy, and a hash of the raw reference
// suite), and the pipeline's learned state (selected features and the
// train-stage drop accounting). It holds no reference experiments: every
// key trains against the same suite, which the restoring server already
// has, so the server sanitizes its own suite once and restores every
// snapshot onto it. The suite hash proves it is the same suite; the
// recorded drops are checked against the server's by core.Restore.
// Everything downstream of that state is deterministic in the seed, so
// restoring it reproduces the original pipeline exactly.
//
// The file format is a single header line
//
//	wpredsnap v2 <sha256-hex-of-payload>\n
//
// followed by the JSON payload. The decoder verifies the magic, the
// version, and the checksum before touching the payload, so corrupt or
// truncated files always yield ErrCorrupt — never a panic, and never a
// pipeline restored from garbage. Files of any other version, including
// v1 files that embedded the whole sanitized suite, yield ErrVersion; the
// server refits their keys like any unreadable snapshot.
// FuzzDecodeSnapshot locks that in.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"wpred/internal/core"
	"wpred/internal/telemetry"
)

// Version is the current snapshot format version. Decode rejects any other
// version with ErrVersion.
const Version = 2

// magic is the file-format tag in the header line.
const magic = "wpredsnap"

// ErrCorrupt marks a snapshot that failed structural validation: bad
// magic, checksum mismatch, malformed payload, or unresolvable contents.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated snapshot")

// ErrVersion marks a snapshot written by an incompatible format version.
var ErrVersion = errors.New("snapshot: unsupported snapshot version")

// Snapshot is one serialized fitted pipeline plus the identity needed to
// decide whether it is still valid for the configuration restoring it.
type Snapshot struct {
	// Selection, Metric, and Model are the registry key's display names.
	Selection, Metric, Model string
	// Seed, TopK, Subsamples, and Sanitize are the training-configuration
	// identity: a restore under a different configuration would serve
	// different predictions, so restorers must compare these.
	Seed       uint64
	TopK       int
	Subsamples int
	Sanitize   telemetry.SanitizePolicy
	// RefsHash fingerprints the raw reference suite the pipeline trained
	// on (SuiteHash). A daemon whose suite changed must not restore; one
	// whose suite matches restores the state onto that suite.
	RefsHash string
	// CreatedUnix is the snapshot's write time (Unix seconds).
	CreatedUnix int64
	// State is the pipeline's learned state.
	State core.PipelineState
}

// KeyString renders the registry key the way the router hashes it.
func (s *Snapshot) KeyString() string {
	return s.Selection + "|" + s.Metric + "|" + s.Model
}

// droppedJSON is the wire form of one train-stage rejection.
type droppedJSON struct {
	ID       string                      `json:"id"`
	Workload string                      `json:"workload"`
	Stage    string                      `json:"stage"`
	Report   *telemetry.CorruptionReport `json:"report"`
}

// payloadJSON is the wire form of a snapshot.
type payloadJSON struct {
	Version          int                      `json:"version"`
	Selection        string                   `json:"selection"`
	Metric           string                   `json:"metric"`
	Model            string                   `json:"model"`
	Seed             uint64                   `json:"seed"`
	TopK             int                      `json:"top_k"`
	Subsamples       int                      `json:"subsamples"`
	Sanitize         telemetry.SanitizePolicy `json:"sanitize"`
	RefsHash         string                   `json:"refs_hash"`
	CreatedUnix      int64                    `json:"created_unix"`
	SelectedFeatures []string                 `json:"selected_features"`
	Dropped          []droppedJSON            `json:"dropped,omitempty"`
}

// Encode writes the snapshot to w in the versioned, checksummed format.
func Encode(w io.Writer, s *Snapshot) error {
	if len(s.State.Selected) == 0 {
		return errors.New("snapshot: encode: state has no selected features")
	}
	p := payloadJSON{
		Version:     Version,
		Selection:   s.Selection,
		Metric:      s.Metric,
		Model:       s.Model,
		Seed:        s.Seed,
		TopK:        s.TopK,
		Subsamples:  s.Subsamples,
		Sanitize:    s.Sanitize,
		RefsHash:    s.RefsHash,
		CreatedUnix: s.CreatedUnix,
	}
	for _, f := range s.State.Selected {
		p.SelectedFeatures = append(p.SelectedFeatures, f.String())
	}
	for _, d := range s.State.Dropped {
		p.Dropped = append(p.Dropped, droppedJSON{ID: d.ID, Workload: d.Workload, Stage: d.Stage, Report: d.Report})
	}
	payload, err := json.Marshal(&p)
	if err != nil {
		return fmt.Errorf("snapshot: encode payload: %w", err)
	}
	sum := sha256.Sum256(payload)
	if _, err := fmt.Fprintf(w, "%s v%d %s\n", magic, Version, hex.EncodeToString(sum[:])); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// Decode reads and validates one snapshot. Any structural failure —
// truncation, a flipped byte anywhere, unknown feature names, a drop
// without its report — yields an error wrapping ErrCorrupt (or ErrVersion
// for a file of another format version); Decode never panics and never
// returns a partially populated snapshot.
func Decode(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: read: %v", ErrCorrupt, err)
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("%w: missing header line", ErrCorrupt)
	}
	header, payload := string(data[:nl]), data[nl+1:]
	var ver int
	var sumHex string
	if n, err := fmt.Sscanf(header, magic+" v%d %s", &ver, &sumHex); n != 2 || err != nil {
		return nil, fmt.Errorf("%w: bad header %q", ErrCorrupt, truncate(header, 64))
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: got v%d, support v%d", ErrVersion, ver, Version)
	}
	want, err := hex.DecodeString(sumHex)
	if err != nil || len(want) != sha256.Size {
		return nil, fmt.Errorf("%w: malformed checksum", ErrCorrupt)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var p payloadJSON
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorrupt, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: trailing data after payload", ErrCorrupt)
	}
	if p.Version != Version {
		return nil, fmt.Errorf("%w: payload v%d disagrees with header v%d", ErrCorrupt, p.Version, ver)
	}
	if p.Selection == "" || p.Metric == "" || p.Model == "" {
		return nil, fmt.Errorf("%w: incomplete registry key", ErrCorrupt)
	}
	s := &Snapshot{
		Selection:   p.Selection,
		Metric:      p.Metric,
		Model:       p.Model,
		Seed:        p.Seed,
		TopK:        p.TopK,
		Subsamples:  p.Subsamples,
		Sanitize:    p.Sanitize,
		RefsHash:    p.RefsHash,
		CreatedUnix: p.CreatedUnix,
	}
	if len(p.SelectedFeatures) == 0 {
		return nil, fmt.Errorf("%w: no selected features", ErrCorrupt)
	}
	for _, name := range p.SelectedFeatures {
		f, ok := telemetry.FeatureByName(name)
		if !ok {
			return nil, fmt.Errorf("%w: unknown feature %q", ErrCorrupt, truncate(name, 64))
		}
		s.State.Selected = append(s.State.Selected, f)
	}
	for i, d := range p.Dropped {
		if d.Report == nil {
			return nil, fmt.Errorf("%w: dropped reference %d has no report", ErrCorrupt, i)
		}
		s.State.Dropped = append(s.State.Dropped, core.DroppedExperiment{
			ID: d.ID, Workload: d.Workload, Stage: d.Stage, Report: d.Report,
		})
	}
	return s, nil
}

// SuiteHash fingerprints a reference suite: the hex SHA-256 over every
// experiment's canonical JSON form, in a canonical order (by experiment ID
// then input position, so hashing is independent of load order). Restorers
// compare it against the hash stamped into a snapshot to detect that the
// daemon's reference suite changed since the snapshot was written.
func SuiteHash(refs []*telemetry.Experiment) (string, error) {
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := refs[order[a]].ID(), refs[order[b]].ID()
		if ia != ib {
			return ia < ib
		}
		return order[a] < order[b]
	})
	h := sha256.New()
	for _, i := range order {
		if err := telemetry.WriteExperiment(h, refs[i]); err != nil {
			return "", fmt.Errorf("snapshot: hash reference %s: %w", refs[i].ID(), err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}
