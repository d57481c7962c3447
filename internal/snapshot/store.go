package snapshot

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// Store is a directory of snapshot files, one per registry key. File names
// are content-addressed by the key (hex SHA-256 of "selection|metric|model",
// truncated), so concurrent daemons sharing one directory — the fleet
// deployment the router is built for — converge on one file per model, and
// a fit on any instance becomes restorable by every other without
// coordination. Saves are atomic and durable (WriteFile), so readers never
// observe a torn file: they see the old snapshot or the new one.
type Store struct {
	dir string
}

// NewStore returns a store rooted at dir. No I/O happens until Save or a
// load; the directory is created on first Save.
func NewStore(dir string) *Store { return &Store{dir: dir} }

// Dir returns the store's root directory.
func (st *Store) Dir() string { return st.dir }

// ext is the snapshot file suffix.
const ext = ".snap"

// Path returns the snapshot file path for a registry key.
func (st *Store) Path(selection, metric, model string) string {
	sum := sha256.Sum256([]byte(selection + "|" + metric + "|" + model))
	return filepath.Join(st.dir, hex.EncodeToString(sum[:16])+ext)
}

// Save writes the snapshot atomically and durably under its key's path
// (see WriteFile). Stray temp files from crashed writers are ignored by
// loads (they lack the .snap suffix).
func (st *Store) Save(s *Snapshot) error {
	return st.WriteFile(filepath.Base(st.Path(s.Selection, s.Metric, s.Model)), func(w io.Writer) error {
		return Encode(w, s)
	})
}

// WriteFile replaces the file name in the store's directory with what
// write produces, atomically and durably: a unique temp file in the same
// directory is written, fsynced and renamed over name, and the directory
// is fsynced so the rename itself survives a crash. A crash or a failure
// at any step leaves the previous file (or none) in place, never a torn
// one, and a failure removes the temp file. Every durable file of the
// snapshot directory goes through it: the snapshots and wpredd's
// drift-state file.
func (st *Store) WriteFile(name string, write func(io.Writer) error) error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return fmt.Errorf("snapshot: store dir: %w", err)
	}
	tmp, err := os.CreateTemp(st.dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("snapshot: temp file: %w", err)
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(st.dir, name))
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("snapshot: write %s: %w", name, err)
	}
	return syncDir(st.dir)
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("snapshot: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("snapshot: sync dir: %w", err)
	}
	return nil
}

// ErrNotFound marks a Load for a key with no snapshot on disk.
var ErrNotFound = errors.New("snapshot: no snapshot for key")

// Load reads and validates the snapshot for one registry key. It returns
// ErrNotFound when no file exists and ErrCorrupt/ErrVersion wrapped errors
// when one exists but cannot be trusted.
func (st *Store) Load(selection, metric, model string) (*Snapshot, error) {
	path := st.Path(selection, metric, model)
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s|%s|%s", ErrNotFound, selection, metric, model)
	} else if err != nil {
		return nil, fmt.Errorf("snapshot: open %s: %w", filepath.Base(path), err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return s, nil
}

// LoadAll decodes every snapshot in the directory in deterministic (file
// name) order. Undecodable files do not fail the whole load — a single
// corrupt snapshot must not keep a daemon from warm-starting the rest —
// they are reported in errs, one per bad file. A missing directory is an
// empty store, not an error.
func (st *Store) LoadAll() (snaps []*Snapshot, errs []error) {
	entries, err := os.ReadDir(st.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, []error{fmt.Errorf("snapshot: read dir %s: %w", st.dir, err)}
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ext {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := os.Open(filepath.Join(st.dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("snapshot: open %s: %w", name, err))
			continue
		}
		s, err := Decode(f)
		f.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		snaps = append(snaps, s)
	}
	return snaps, errs
}
